//! The driver flags `oraql` and `oraql gen` both take: `--jobs`/`-j`,
//! `--max-tests`, `--fault-plan`, `--server` and `--no-gate`.
//!
//! One parser holds their range checks and error texts, and builds the
//! fault injector and the verdict-server client; [`DriverFlags::apply`]
//! writes them into a run's options.

use std::str::FromStr;
use std::sync::Arc;

use oraql::served::Client;
use oraql::{DriverOptions, FaultInjector, FaultPlan};

/// The values the shared driver flags set.
#[derive(Debug)]
pub struct DriverFlags {
    jobs: Option<usize>,
    max_tests: Option<u64>,
    /// `--fault-plan`: the spec as given and the injector it arms.
    pub faults: Option<(String, Arc<FaultInjector>)>,
    /// `--server`: the verdict-server client (it dials lazily, so a dead
    /// daemon costs nothing until a probe misses every local tier).
    pub server: Option<Arc<Client>>,
    /// Cross-check generated cases against their labels (the soundness
    /// gate); `--no-gate` clears it.
    pub gate: bool,
}

impl Default for DriverFlags {
    fn default() -> Self {
        DriverFlags {
            jobs: None,
            max_tests: None,
            faults: None,
            server: None,
            gate: true,
        }
    }
}

impl DriverFlags {
    /// Parses the shared flag at `args[*i]`, leaving `i` on its value.
    /// `Ok(false)` when `args[*i]` is not a shared flag; `Err` is the
    /// one-line message for a missing or bad value.
    pub fn parse(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        let flag = args[*i].as_str();
        let mut value = || {
            *i += 1;
            args.get(*i)
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--jobs" | "-j" => {
                self.jobs = Some(number(flag, value()?, "an integer >= 1", |n| n >= 1)?);
            }
            "--max-tests" => {
                self.max_tests = Some(number(flag, value()?, "an integer probe budget", |_| true)?);
            }
            "--fault-plan" => {
                let spec = value()?;
                let plan = FaultPlan::parse(spec).map_err(|e| format!("bad --fault-plan: {e}"))?;
                // Injected panics are expected noise under a fault plan;
                // keep their backtrace banners off stderr.
                oraql::faults::quiet_injected_panics();
                self.faults = Some((spec.to_owned(), Arc::new(FaultInjector::new(plan))));
            }
            "--server" => self.server = Some(Arc::new(Client::new(value()?))),
            "--no-gate" => self.gate = false,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Writes every setting these flags carry into `opts`. Run it after
    /// `Config::apply`, so a flag wins over the config.
    pub fn apply(&self, opts: &mut DriverOptions) {
        if let Some(jobs) = self.jobs {
            opts.jobs = jobs;
        }
        if let Some(n) = self.max_tests {
            opts.max_tests = n;
        }
        opts.faults = self.faults.as_ref().map(|(_, inj)| Arc::clone(inj));
        opts.server = self.server.clone();
    }
}

/// Parses `v`, the value of `flag`, as a number that `ok` accepts.
fn number<T: FromStr + Copy>(
    flag: &str,
    v: &str,
    want: &str,
    ok: impl Fn(T) -> bool,
) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|&n| ok(n))
        .ok_or_else(|| format!("bad {flag} {v:?}: expected {want}"))
}
