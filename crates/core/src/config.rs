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

use crate::compile::Scope;
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
    /// Persistent verdict-store journal path (`store = <path>`; the
    /// CLI's `--no-store` overrides it).
    pub store: Option<String>,
    /// Verdict-server address (`server = host:port` or `server =
    /// unix:<path>`; the CLI's `--no-server` overrides it). Attaches
    /// `oraql-served` as a third cache tier behind the local store.
    pub server: Option<String>,
    /// Fault-injection plan spec (`fault_plan = seed=42,vm-trap=1/16`;
    /// see `oraql_faults::FaultPlan::parse`). Validated at parse time.
    pub fault_plan: Option<String>,
    /// Wall-clock watchdog per probe attempt, in milliseconds
    /// (`probe_deadline_ms = 2000`; 0 disables).
    pub probe_deadline_ms: u64,
    /// Metrics exposition output path (`metrics_out = <path>`; CLI
    /// flag `--metrics-out`). At the end of the run the registry
    /// snapshot is written there as Prometheus-style text.
    pub metrics_out: Option<String>,
    /// Span-trace output path (`spans_out = <path>`; CLI flag
    /// `--spans-out`). Enables span tracing; one JSONL line per span.
    pub spans_out: Option<String>,
    /// Ground-truth soundness gate for generated (`gen:`) benchmarks
    /// (`soundness_gate = false` disables; CLI flag `--no-gate`). On by
    /// default; ignored for hand-written benchmarks, which have no
    /// labels to check against.
    pub soundness_gate: bool,
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
            store: None,
            server: None,
            fault_plan: None,
            probe_deadline_ms: 0,
            metrics_out: None,
            spans_out: None,
            soundness_gate: true,
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
                "store" => {
                    if value.is_empty() {
                        return Err(format!("line {}: store needs a path", ln + 1));
                    }
                    cfg.store = Some(value.to_owned());
                }
                "server" => {
                    if value.is_empty() {
                        return Err(format!("line {}: server needs an address", ln + 1));
                    }
                    cfg.server = Some(value.to_owned());
                }
                "fault_plan" => {
                    oraql_faults::FaultPlan::parse(value)
                        .map_err(|e| format!("line {}: {e}", ln + 1))?;
                    cfg.fault_plan = Some(value.to_owned());
                }
                "metrics_out" => {
                    if value.is_empty() {
                        return Err(format!("line {}: metrics_out needs a path", ln + 1));
                    }
                    cfg.metrics_out = Some(value.to_owned());
                }
                "spans_out" => {
                    if value.is_empty() {
                        return Err(format!("line {}: spans_out needs a path", ln + 1));
                    }
                    cfg.spans_out = Some(value.to_owned());
                }
                "probe_deadline_ms" => {
                    cfg.probe_deadline_ms = value
                        .parse()
                        .map_err(|e| format!("line {}: bad probe_deadline_ms: {e}", ln + 1))?
                }
                "soundness_gate" => {
                    cfg.soundness_gate = value
                        .parse()
                        .map_err(|e| format!("line {}: bad soundness_gate: {e}", ln + 1))?
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
        assert!(Config::parse("benchmark = x\nstore =\n").is_err());
        assert!(Config::parse("benchmark = x\nserver =\n").is_err());
        assert!(Config::parse("benchmark = x\nmetrics_out =\n").is_err());
        assert!(Config::parse("benchmark = x\nspans_out =\n").is_err());
    }

    #[test]
    fn parses_observability_paths() {
        let cfg = Config::parse(
            "benchmark = x\n\
             metrics_out = out/metrics.prom\n\
             spans_out = out/spans.jsonl\n",
        )
        .unwrap();
        assert_eq!(cfg.metrics_out.as_deref(), Some("out/metrics.prom"));
        assert_eq!(cfg.spans_out.as_deref(), Some("out/spans.jsonl"));
        let d = Config::parse("benchmark = x\n").unwrap();
        assert_eq!(d.metrics_out, None);
        assert_eq!(d.spans_out, None);
    }

    #[test]
    fn parses_store_path() {
        let cfg = Config::parse("benchmark = x\nstore = .oraql/verdicts.journal\n").unwrap();
        assert_eq!(cfg.store.as_deref(), Some(".oraql/verdicts.journal"));
        assert_eq!(Config::parse("benchmark = x\n").unwrap().store, None);
    }

    #[test]
    fn parses_server_address() {
        let cfg = Config::parse("benchmark = x\nserver = 127.0.0.1:7437\n").unwrap();
        assert_eq!(cfg.server.as_deref(), Some("127.0.0.1:7437"));
        let cfg = Config::parse("benchmark = x\nserver = unix:/run/oraql.sock\n").unwrap();
        assert_eq!(cfg.server.as_deref(), Some("unix:/run/oraql.sock"));
        assert_eq!(Config::parse("benchmark = x\n").unwrap().server, None);
    }

    #[test]
    fn parses_fault_plan_and_deadline() {
        let cfg = Config::parse(
            "benchmark = x\n\
             fault_plan = seed=9,vm-trap=1/8,compile-panic=1/16\n\
             probe_deadline_ms = 1500\n",
        )
        .unwrap();
        assert_eq!(
            cfg.fault_plan.as_deref(),
            Some("seed=9,vm-trap=1/8,compile-panic=1/16")
        );
        assert_eq!(cfg.probe_deadline_ms, 1500);
        let d = Config::parse("benchmark = x\n").unwrap();
        assert_eq!(d.fault_plan, None);
        assert_eq!(d.probe_deadline_ms, 0);
        // A malformed plan is rejected at parse time, not at run time.
        assert!(Config::parse("benchmark = x\nfault_plan = bogus-site=1/2\n").is_err());
        assert!(Config::parse("benchmark = x\nprobe_deadline_ms = soon\n").is_err());
    }

    #[test]
    fn parses_soundness_gate() {
        let cfg = Config::parse("benchmark = x\nsoundness_gate = false\n").unwrap();
        assert!(!cfg.soundness_gate);
        assert!(Config::parse("benchmark = x\n").unwrap().soundness_gate);
        assert!(Config::parse("benchmark = x\nsoundness_gate = perhaps\n").is_err());
    }
}
