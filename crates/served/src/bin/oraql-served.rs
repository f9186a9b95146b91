//! The `oraql-served` daemon and its operator CLI.
//!
//! ```text
//! oraql-served serve --dir DIR [--listen ADDR] [--fsync-ms N]
//!                    [--max-inflight N] [--max-conns N]
//!                    [--request-deadline-ms N] [--fault-plan SPEC]
//! oraql-served ping|stats|sync|compact ADDR
//! ```
//!
//! `serve` keeps its corpus in `DIR/verdicts.journal`, an ordinary
//! store journal, and runs until killed; the journal is crash-safe, so
//! SIGKILL at any point loses at most one fsync interval of acked
//! writes and never corrupts recovery (see `docs/OPERATIONS.md`).
//! `--fault-plan` arms the wire/daemon chaos sites (`FaultPlan::parse`
//! syntax) with `CrashMode::Abort` — an injected `crash-point` genuinely
//! kills the process, which is exactly what the crash-torture harness
//! wants from a child daemon. The other subcommands are thin client
//! wrappers for operators and scripts.

use oraql_served::{Client, CrashMode, Server, ServerOptions};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  oraql-served serve --dir DIR [--listen ADDR] [--fsync-ms N] [--max-inflight N]
                     [--max-conns N] [--request-deadline-ms N] [--fault-plan SPEC]
  oraql-served ping ADDR
  oraql-served stats ADDR
  oraql-served sync ADDR
  oraql-served compact ADDR

ADDR is host:port for TCP or unix:<path> (or any string containing '/')
for a Unix-domain socket. Default listen address: 127.0.0.1:7437.
The corpus lives in DIR/verdicts.journal, which `oraql --store` can open.
Defaults: 5 ms fsync, 100 ms request deadline, unbounded inflight/conns.
--fault-plan injects wire/daemon chaos (testing only); crash points
abort the process.";

fn fail(msg: &str) -> ExitCode {
    eprintln!("oraql-served: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "serve" => serve(&args[1..]),
        "ping" | "stats" | "sync" | "compact" => {
            let Some(addr) = args.get(1) else {
                return fail("missing ADDR (see --help)");
            };
            client_op(cmd, addr)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown command `{other}` (see --help)")),
    }
}

fn serve(args: &[String]) -> ExitCode {
    let mut dir = None;
    let mut listen = "127.0.0.1:7437".to_string();
    let mut config = ServerOptions::new("");
    let mut fault_plan = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse::<T>().map_err(|_| format!("bad {flag} `{v}`"))
        }
        let parsed = match a.as_str() {
            "--dir" => val("--dir").map(|v| dir = Some(v)),
            "--listen" => val("--listen").map(|v| listen = v),
            "--fsync-ms" => val("--fsync-ms")
                .and_then(|v| num("--fsync-ms", v))
                .map(|n| config.fsync_interval = Duration::from_millis(n)),
            "--max-inflight" => val("--max-inflight")
                .and_then(|v| num("--max-inflight", v))
                .map(|n| config.max_inflight = n),
            "--max-conns" => val("--max-conns")
                .and_then(|v| num("--max-conns", v))
                .map(|n| config.max_conns = n),
            "--request-deadline-ms" => val("--request-deadline-ms")
                .and_then(|v| num("--request-deadline-ms", v))
                .map(|n| config.request_deadline = Duration::from_millis(n)),
            "--fault-plan" => val("--fault-plan")
                .and_then(|v| oraql_faults::FaultPlan::parse(&v).map(|p| fault_plan = Some(p))),
            other => Err(format!("unknown flag `{other}` (see --help)")),
        };
        if let Err(msg) = parsed {
            return fail(&msg);
        }
    }
    let Some(dir) = dir else {
        return fail("serve requires --dir DIR");
    };
    config.dir = dir.into();
    if let Some(plan) = fault_plan {
        config.faults = Some(Arc::new(oraql_faults::FaultInjector::new(plan)));
        config.crash_mode = CrashMode::Abort;
    }
    let server = match Server::start(&config, &listen) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot start: {e}")),
    };
    println!(
        "oraql-served: listening on {}, {} records in {}",
        server.addr(),
        server.indexed_records(),
        config.dir.join(oraql_served::server::JOURNAL).display()
    );
    // Run until killed. The journal tolerates SIGKILL at any point; a
    // clean `kill` (SIGTERM) also just drops the process — recovery on
    // next start truncates at most one torn tail.
    loop {
        std::thread::park();
    }
}

fn client_op(cmd: &str, addr: &str) -> ExitCode {
    let client = Client::new(addr);
    let res = match cmd {
        "ping" => client.ping().map(|()| "pong".to_string()),
        "stats" => client.server_stats(),
        "sync" => client.sync().map(|()| "synced".to_string()),
        "compact" => client.server_compact(),
        _ => unreachable!("dispatched in main"),
    };
    match res {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}
