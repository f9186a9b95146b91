//! Benchmark configuration files for the CLI driver (the paper requires
//! "a configuration file that could be automatically generated from
//! common build, test, and profiling steps").
//!
//! Line-oriented `key = value` format; `#` starts a comment; repeatable
//! keys accumulate. Example:
//!
//! ```text
//! # TestSNAP, OpenMP configuration
//! benchmark = testsnap_omp
//! files = sna.cpp
//! strategy = chunked
//! ignore = Runtime: <float> cycles
//! ignore = grind time <float> ms
//! fuel = 500000000
//! max_tests = 4096
//! ```
//!
//! A file describes the benchmark, not the run environment. A key
//! exists when no flag sets its value (`files`, `target`, `ignore`,
//! `reference`, `fuel`, `use_cfl`) or when a file in `configs/` sets
//! it (`benchmark`, `strategy`, `max_tests`, `dump`); for those four a
//! flag wins wherever it appears. Everything else — journal, server,
//! fault plan, trace path, the soundness gate — is a flag only, and a
//! file naming it (or a retired key such as `metrics_out`) fails with
//! `unknown key`.
//! [`Config::apply`] is the one place a config reaches a run.

use crate::compile::Scope;
use crate::driver::{DriverOptions, TestCase};
use crate::strategy::Strategy;

/// Parsed configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Benchmark name (resolved against a program registry by the CLI).
    pub benchmark: String,
    /// ORAQL scope.
    pub scope: Scope,
    /// Ignore patterns for the verifier.
    pub ignore: Vec<String>,
    /// Extra reference outputs (inline, `\n`-joined via repeated keys).
    pub references: Vec<String>,
    /// Bisection strategy.
    pub strategy: Strategy,
    /// VM fuel per test.
    pub fuel: u64,
    /// Test budget.
    pub max_tests: u64,
    /// Register the CFL points-to analyses.
    pub use_cfl: bool,
    /// Dump report after the run.
    pub dump: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            benchmark: String::new(),
            scope: Scope::everything(),
            ignore: Vec::new(),
            references: Vec::new(),
            strategy: Strategy::Chunked,
            fuel: oraql_vm::DEFAULT_FUEL,
            max_tests: 4_096,
            use_cfl: false,
            dump: false,
        }
    }
}

impl Config {
    /// Parses a configuration file's contents.
    pub fn parse(src: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        for (ln, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", ln + 1))?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "benchmark" => cfg.benchmark = value.to_owned(),
                "files" => {
                    let files: Vec<String> =
                        value.split(',').map(|s| s.trim().to_owned()).collect();
                    cfg.scope.files = Some(files);
                }
                "target" => cfg.scope.target = Some(value.to_owned()),
                "ignore" => cfg.ignore.push(value.to_owned()),
                "reference" => cfg.references.push(value.to_owned()),
                "strategy" => cfg.strategy = Strategy::parse(value)?,
                "fuel" => {
                    cfg.fuel = value
                        .parse()
                        .map_err(|e| format!("line {}: bad fuel: {e}", ln + 1))?
                }
                "max_tests" => {
                    cfg.max_tests = value
                        .parse()
                        .map_err(|e| format!("line {}: bad max_tests: {e}", ln + 1))?
                }
                "use_cfl" => {
                    cfg.use_cfl = value
                        .parse()
                        .map_err(|e| format!("line {}: bad use_cfl: {e}", ln + 1))?
                }
                "dump" => {
                    cfg.dump = value
                        .parse()
                        .map_err(|e| format!("line {}: bad dump: {e}", ln + 1))?
                }
                other => return Err(format!("line {}: unknown key {other:?}", ln + 1)),
            }
        }
        if cfg.benchmark.is_empty() {
            return Err("missing `benchmark = <name>`".into());
        }
        Ok(cfg)
    }

    /// Loads and parses a configuration file.
    pub fn load(path: &str) -> Result<Config, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&src)
    }

    /// Lets this config reach a run: the one place a config value is
    /// copied into a [`TestCase`] or [`DriverOptions`]. Scope and
    /// ignore patterns replace the case's own only when the file sets
    /// them; references, fuel and `use_cfl` are always copied; strategy
    /// and test budget go into `opts`, where a flag may then override
    /// them.
    pub fn apply(&self, case: &mut TestCase, opts: &mut DriverOptions) {
        if self.scope != Scope::everything() {
            case.scope = self.scope.clone();
        }
        if !self.ignore.is_empty() {
            case.ignore_patterns = self.ignore.clone();
        }
        case.extra_references = self.references.clone();
        case.fuel = self.fuel;
        case.use_cfl = self.use_cfl;
        opts.strategy = self.strategy;
        opts.max_tests = self.max_tests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            "# comment\n\
             benchmark = testsnap_omp\n\
             files = sna.cpp, util.cpp\n\
             target = host\n\
             strategy = frequency\n\
             ignore = Runtime: <float> cycles\n\
             ignore = rank <int> done\n\
             fuel = 1000\n\
             max_tests = 7\n\
             use_cfl = true\n\
             dump = true\n",
        )
        .unwrap();
        assert_eq!(cfg.benchmark, "testsnap_omp");
        assert_eq!(
            cfg.scope.files,
            Some(vec!["sna.cpp".to_owned(), "util.cpp".to_owned()])
        );
        assert_eq!(cfg.scope.target, Some("host".to_owned()));
        assert_eq!(cfg.strategy, Strategy::FrequencySpace);
        assert_eq!(cfg.ignore.len(), 2);
        assert_eq!(cfg.fuel, 1000);
        assert_eq!(cfg.max_tests, 7);
        assert!(cfg.use_cfl);
        assert!(cfg.dump);
    }

    #[test]
    fn defaults_are_sensible() {
        let cfg = Config::parse("benchmark = x\n").unwrap();
        assert_eq!(cfg.strategy, Strategy::Chunked);
        assert_eq!(cfg.scope, Scope::everything());
        assert!(!cfg.use_cfl);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Config::parse("").is_err()); // no benchmark
        assert!(Config::parse("benchmark = x\nwhat = y\n").is_err());
        assert!(Config::parse("benchmark = x\nfuel = lots\n").is_err());
        assert!(Config::parse("benchmark = x\nnonsense line\n").is_err());
        // Run settings a flag sets are not keys.
        for line in [
            "store = j",
            "server = 127.0.0.1:7437",
            "fault_plan = seed=9,vm-trap=1/8",
            "metrics_out = m.prom",
            "spans_out = s.jsonl",
            "soundness_gate = true",
        ] {
            let err = Config::parse(&format!("benchmark = x\n{line}\n")).unwrap_err();
            assert!(err.contains("unknown key"), "{line}: {err}");
        }
    }

    #[test]
    fn apply_copies_scope_and_ignore_only_when_set() {
        let mut case = TestCase::new("x", || oraql_ir::module::Module::new("x"));
        case.scope.target = Some("device".into());
        case.ignore_patterns = vec!["Runtime: <int> cycles".into()];
        let mut opts = DriverOptions::default();
        let cfg = Config::parse("benchmark = x\nfuel = 9\nmax_tests = 3\nstrategy = frequency\n")
            .unwrap();
        cfg.apply(&mut case, &mut opts);
        assert_eq!(case.scope.target.as_deref(), Some("device"));
        assert_eq!(case.ignore_patterns.len(), 1);
        assert_eq!((case.fuel, opts.max_tests), (9, 3));
        assert_eq!(opts.strategy, Strategy::FrequencySpace);
        let cfg = Config::parse("benchmark = x\nfiles = a.cpp\nignore = FOM: <any>\n").unwrap();
        cfg.apply(&mut case, &mut opts);
        assert_eq!(case.scope, cfg.scope);
        assert_eq!(case.ignore_patterns, cfg.ignore);
        assert_eq!(case.fuel, oraql_vm::DEFAULT_FUEL);
    }
}
