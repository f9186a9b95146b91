//! The "compiler": builds the conservative alias-analysis chain, appends
//! the ORAQL pass as the last resort, runs the standard optimization
//! pipeline and collects the statistics the evaluation reports.
//!
//! Two entry points: [`compile`] runs the pipeline and then collects
//! the Fig. 6 statistics (baseline and final compiles, reports);
//! [`compile_pipeline`] stops after the pipeline, which is all a probe
//! reads.

use crate::pass::{OraqlAA, OraqlShared};
use crate::sequence::Decisions;
use oraql_analysis::andersen::AndersenAA;
use oraql_analysis::basic::BasicAA;
use oraql_analysis::globals::GlobalsAA;
use oraql_analysis::scoped::ScopedNoAliasAA;
use oraql_analysis::steens::SteensgaardAA;
use oraql_analysis::tbaa::TypeBasedAA;
use oraql_analysis::AAManager;
use oraql_ir::meta::Target;
use oraql_ir::module::{Function, Module};
use oraql_passes::{standard_pipeline, Stats};

/// Restriction of the ORAQL pass to parts of a compilation (§IV-E).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scope {
    /// Only answer queries in functions from these source files
    /// (`None` = all files).
    pub files: Option<Vec<String>>,
    /// Only answer queries in functions whose target name contains this
    /// substring (the `-opt-aa-target=<target-sub-string>` analogue).
    pub target: Option<String>,
}

impl Scope {
    /// No restriction.
    pub fn everything() -> Self {
        Scope::default()
    }

    /// Restrict to functions from the given source files.
    pub fn files(files: Vec<String>) -> Self {
        Scope {
            files: Some(files),
            target: None,
        }
    }

    /// Restrict to a compilation target by substring.
    pub fn target(sub: &str) -> Self {
        Scope {
            files: None,
            target: Some(sub.to_owned()),
        }
    }

    /// Does the scope cover function `f` of module `m`?
    pub fn contains(&self, m: &Module, f: &Function) -> bool {
        if let Some(files) = &self.files {
            let Some(src) = f.src_file else {
                return false;
            };
            let name = m.strings.resolve(src);
            if !files.iter().any(|want| name == want) {
                return false;
            }
        }
        if let Some(sub) = &self.target {
            if !f.target.name().contains(sub.as_str()) {
                return false;
            }
        }
        true
    }
}

/// Options controlling one compilation.
#[derive(Clone)]
pub struct CompileOptions {
    /// Install the ORAQL pass with these decisions and scope.
    pub oraql: Option<(Decisions, Scope)>,
    /// Additionally register the CFL-style points-to analyses
    /// (Steensgaard + Andersen). Off by default, mirroring LLVM 14's
    /// default pipeline where the CFL analyses are disabled.
    pub use_cfl: bool,
    /// Verify IR after every pass (slow; tests enable it).
    pub verify_each: bool,
    /// Conservative analyses whose answers are *blocked* (treated as
    /// may-alias) — the paper's §VIII proposal for categorizing the
    /// effect of already-known queries.
    pub suppress: Vec<String>,
    /// What the ORAQL pass's optimistic answers mean (§VIII).
    pub optimism: crate::pass::OptimismKind,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            oraql: None,
            use_cfl: false,
            verify_each: false,
            suppress: Vec::new(),
            optimism: crate::pass::OptimismKind::NoAlias,
        }
    }
}

impl CompileOptions {
    /// Baseline compile (no ORAQL pass).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Compile with the ORAQL pass installed.
    pub fn with_oraql(decisions: Decisions, scope: Scope) -> Self {
        CompileOptions {
            oraql: Some((decisions, scope)),
            ..Self::default()
        }
    }
}

/// Result of one compilation.
pub struct Compiled {
    /// The optimized module (run it with `oraql_vm::Interpreter`).
    pub module: Module,
    /// Pass statistics (`-stats` analogue). After [`compile`] they
    /// include the machine-level and alias-analysis counters; after
    /// [`compile_pipeline`] only the passes' own.
    pub stats: Stats,
    /// Total no-alias answers across the whole analysis chain
    /// (the paper's "# No-Alias Results" column).
    pub no_alias_total: u64,
    /// Total alias queries issued.
    pub total_queries: u64,
    /// Handle to the ORAQL pass state, when installed.
    pub oraql: Option<OraqlShared>,
}

/// Builds the conservative chain used by every compilation.
pub fn conservative_chain(m: &Module, use_cfl: bool) -> AAManager {
    let mut aa = AAManager::new();
    aa.add(Box::new(BasicAA::new()));
    aa.add(Box::new(ScopedNoAliasAA::new()));
    aa.add(Box::new(TypeBasedAA::new()));
    aa.add(Box::new(GlobalsAA::new(m)));
    if use_cfl {
        aa.add(Box::new(SteensgaardAA::new(m)));
        aa.add(Box::new(AndersenAA::new(m)));
    }
    aa
}

/// Compiles a freshly built module under the given options: the
/// pipeline step ([`compile_pipeline`]), then the Fig. 6 statistics
/// step, which lowers each function once for the `asm printer` and
/// `register allocation` counters and copies the analysis chain's
/// counters under `alias analysis`.
pub fn compile(build: &dyn Fn() -> Module, opts: &CompileOptions) -> Compiled {
    let (mut compiled, aa) = run_pipeline(build, opts);
    let stats = &mut compiled.stats;
    // Machine-level statistics (asm printer / register allocation),
    // from one lowering of each function.
    for target in [Target::Host, Target::Device] {
        let (insts, spills) = oraql_vm::machine::module_machine_stats(&compiled.module, target);
        if insts > 0 {
            stats.set(
                "asm printer",
                &format!("machine instructions generated ({})", target.name()),
                insts,
            );
            stats.set(
                "register allocation",
                &format!("register spills inserted ({})", target.name()),
                spills,
            );
        }
    }
    // Propagate AA-chain statistics into the registry.
    for (k, v) in aa.stats() {
        stats.set("alias analysis", &k, v);
    }
    stats.set("alias analysis", "no-alias results", aa.no_alias_total());
    stats.set("alias analysis", "total queries", aa.total_queries);
    compiled
}

/// The pipeline step of [`compile`] alone: build, analysis chain,
/// pass pipeline. The module, the query counts and the ORAQL state
/// are exactly [`compile`]'s; `stats` holds only the passes' own
/// counters. A probe reads nothing else, so probes compile this way.
pub fn compile_pipeline(build: &dyn Fn() -> Module, opts: &CompileOptions) -> Compiled {
    run_pipeline(build, opts).0
}

/// Builds the module, installs the chain (plus ORAQL when requested)
/// and runs the standard pipeline; returns the chain with the result so
/// [`compile`] can read its counters.
fn run_pipeline(build: &dyn Fn() -> Module, opts: &CompileOptions) -> (Compiled, AAManager) {
    let mut module = build();
    let mut aa = conservative_chain(&module, opts.use_cfl);
    aa.suppressed = opts.suppress.iter().cloned().collect();
    let oraql = opts.oraql.as_ref().map(|(decisions, scope)| {
        let shared = crate::pass::new_shared_with(decisions.clone(), scope.clone(), opts.optimism);
        aa.add(Box::new(OraqlAA::new(shared.clone())));
        shared
    });

    let mut stats = Stats::new();
    let mut pm = standard_pipeline();
    pm.verify_each = opts.verify_each;
    pm.run(&mut module, &mut aa, &mut stats);

    let compiled = Compiled {
        no_alias_total: aa.no_alias_total(),
        total_queries: aa.total_queries,
        module,
        stats,
        oraql,
    };
    (compiled, aa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::printer::module_str;
    use oraql_ir::{Ty, Value};
    use oraql_vm::Interpreter;

    /// p/q arrive aliased at runtime but look may-aliasing statically.
    fn trap_module() -> Module {
        let mut m = Module::new("t");
        let work = {
            let mut b = FunctionBuilder::new(&mut m, "work", vec![Ty::Ptr, Ty::Ptr], None);
            b.set_src_file("kernel.c");
            let p = b.arg(0);
            let q = b.arg(1);
            let l1 = b.load(Ty::I64, p);
            b.store(Ty::I64, Value::ConstInt(7), q);
            let l2 = b.load(Ty::I64, p);
            let s = b.add(l1, l2);
            b.print("{}", vec![s]);
            b.ret(None);
            b.finish()
        };
        let g = m.add_global("cell", 8, vec![1, 0, 0, 0, 0, 0, 0, 0], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.set_src_file("main.c");
        b.call(work, vec![Value::Global(g), Value::Global(g)], None);
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn baseline_compile_preserves_semantics() {
        let c = compile(&trap_module, &CompileOptions::baseline());
        let out = Interpreter::run_main(&c.module).unwrap();
        assert_eq!(out.stdout, "8\n"); // 1 + 7
        assert!(c.oraql.is_none());
        assert!(c.total_queries > 0);
    }

    #[test]
    fn full_optimism_miscompiles_the_trap() {
        let c = compile(
            &trap_module,
            &CompileOptions::with_oraql(Decisions::all_optimistic(), Scope::everything()),
        );
        let out = Interpreter::run_main(&c.module).unwrap();
        // GVN forwarded the first load over the aliasing store.
        assert_eq!(out.stdout, "2\n"); // wrong: 1 + 1
        let st = c.oraql.unwrap();
        assert!(st.lock().stats.unique_optimistic > 0);
    }

    #[test]
    fn pessimistic_oraql_matches_baseline() {
        let c = compile(
            &trap_module,
            &CompileOptions::with_oraql(Decisions::all_pessimistic(), Scope::everything()),
        );
        let out = Interpreter::run_main(&c.module).unwrap();
        assert_eq!(out.stdout, "8\n");
        let st = c.oraql.unwrap();
        let stats = st.lock().stats;
        assert!(stats.unique_pessimistic > 0);
        assert_eq!(stats.unique_optimistic, 0);
    }

    #[test]
    fn scope_restricts_answers() {
        // Scope to a file that does not contain the dangerous function.
        let c = compile(
            &trap_module,
            &CompileOptions::with_oraql(
                Decisions::all_optimistic(),
                Scope::files(vec!["main.c".into()]),
            ),
        );
        let out = Interpreter::run_main(&c.module).unwrap();
        assert_eq!(out.stdout, "8\n"); // kernel.c untouched: correct
        let st = c.oraql.unwrap();
        assert!(st.lock().stats.out_of_scope > 0);
    }

    #[test]
    fn oraql_raises_no_alias_total() {
        let base = compile(&trap_module, &CompileOptions::baseline());
        let opt = compile(
            &trap_module,
            &CompileOptions::with_oraql(Decisions::all_optimistic(), Scope::everything()),
        );
        assert!(opt.no_alias_total > base.no_alias_total);
    }

    #[test]
    fn cfl_chain_compiles() {
        let opts = CompileOptions {
            use_cfl: true,
            verify_each: true,
            ..CompileOptions::default()
        };
        let c = compile(&trap_module, &opts);
        let out = Interpreter::run_main(&c.module).unwrap();
        assert_eq!(out.stdout, "8\n");
    }

    #[test]
    fn pipeline_step_matches_compile_without_statistics() {
        for decisions in [Decisions::all_optimistic(), Decisions::all_pessimistic()] {
            let opts = CompileOptions::with_oraql(decisions, Scope::everything());
            let full = compile(&trap_module, &opts);
            let probe = compile_pipeline(&trap_module, &opts);
            assert_eq!(module_str(&full.module), module_str(&probe.module));
            assert_eq!(full.no_alias_total, probe.no_alias_total);
            assert_eq!(full.total_queries, probe.total_queries);
            let oraql = |c: &Compiled| c.oraql.as_ref().map(|s| s.lock().stats);
            assert_eq!(oraql(&full), oraql(&probe));
            assert!(oraql(&probe).is_some_and(|s| s.unique() > 0));
            let has = |c: &Compiled, group: &str| c.stats.iter().any(|(p, _, _)| p == group);
            for group in ["asm printer", "register allocation", "alias analysis"] {
                assert!(has(&full, group), "compile() lacks {group}");
                assert!(!has(&probe, group), "pipeline step has {group}");
            }
            // Every pass counter the pipeline step records, compile()
            // records with the same value.
            for (p, k, v) in probe.stats.iter() {
                assert_eq!(full.stats.get(p, k), v, "{p} - {k}");
            }
        }
    }
}
