//! Verdict-server benchmark: sustained lookup throughput under
//! concurrent clients, and cold-vs-warm probe replay through the
//! daemon.
//!
//! Two measurements against one in-process `oraql-served` daemon:
//!
//! 1. **Sustained lookups/s** at 1, 4, and 8 concurrent clients, each
//!    on its own connection, hammering `GetDec` over a pre-populated
//!    key set — the read-mostly index path the multi-tenant design
//!    optimizes for.
//! 2. **Cold vs warm suite replay**: every registered workload
//!    configuration run twice with `--server` as the only cache tier —
//!    a cold pass populating the daemon (every probe compiles) and a
//!    warm pass from a fresh tenant (every probe answered remotely,
//!    zero compiles). The warm/cold ratio is the remote-tier payoff.
//!
//! Results land as JSON in `$ORAQL_BENCH_OUT` (default
//! `BENCH_served.json` in the working directory). Not a criterion
//! bench: the JSON artifact is the point.

use std::sync::Arc;
use std::time::Instant;

use oraql::{Driver, DriverOptions};
use oraql_served::{Client, Server, ServerOptions};

/// Keys pre-populated for the lookup-throughput phase.
const POPULATION: u64 = 4_096;
/// Lookups each client performs per throughput round.
const LOOKUPS_PER_CLIENT: u64 = 25_000;

fn lookup_throughput(addr: &str, clients: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let addr = addr.to_string();
            handles.push(s.spawn(move || {
                let client = Client::new(&addr);
                for i in 0..LOOKUPS_PER_CLIENT {
                    // Stride by client id so concurrent clients fan out
                    // over different shards at any instant.
                    let key = (i * (c as u64 + 1)) % POPULATION;
                    let got = client.get_dec(key).expect("lookup");
                    assert!(got.is_some(), "populated key {key} missing");
                }
            }));
        }
        for h in handles {
            h.join().expect("client thread");
        }
    });
    (clients as u64 * LOOKUPS_PER_CLIENT) as f64 / t.elapsed().as_secs_f64()
}

fn run_pass(addr: &str, label: &str) -> Vec<(String, f64)> {
    // A fresh client per pass = a fresh tenant: nothing carries over
    // locally, so the warm pass measures the remote tier alone.
    let client = Arc::new(Client::new(addr));
    let mut rows = Vec::new();
    for info in &oraql_workloads::CASE_INFOS {
        let case = oraql_workloads::find_case(info.name).expect("registered");
        let t = Instant::now();
        let r = Driver::run(
            &case,
            DriverOptions {
                server: Some(Arc::clone(&client)),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", info.name));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if label == "warm" {
            assert_eq!(
                r.effort.compiles, 0,
                "{}: warm pass compiled probes: {:?}",
                info.name, r.effort
            );
            assert!(r.effort.tests_server > 0, "{}: {:?}", info.name, r.effort);
        }
        assert_eq!(r.failures.server_down, 0, "{}: {:?}", info.name, r.failures);
        rows.push((info.name.to_owned(), ms));
    }
    rows
}

fn main() {
    let dir = std::env::temp_dir().join(format!("oraql_bench_served_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(&ServerOptions::new(&dir), "127.0.0.1:0").expect("start server");
    let addr = server.addr();

    // Phase 1: populate, then sustained concurrent lookups.
    let seed = Client::new(&addr);
    for key in 0..POPULATION {
        seed.put_dec(key, key % 3 != 0, key).expect("populate");
    }
    seed.sync().expect("sync");
    let mut lookup_rows = Vec::new();
    for &clients in &[1usize, 4, 8] {
        let per_s = lookup_throughput(&addr, clients);
        println!("{clients} client(s): {per_s:>12.0} lookups/s");
        lookup_rows.push((clients, per_s));
    }

    // Phase 2: cold-vs-warm suite replay through the daemon.
    let cold = run_pass(&addr, "cold");
    let warm = run_pass(&addr, "warm");

    let mut rows = Vec::new();
    let (mut cold_total, mut warm_total) = (0.0f64, 0.0f64);
    for ((name, cold_ms), (_, warm_ms)) in cold.iter().zip(&warm) {
        let ratio = warm_ms / cold_ms;
        println!("{name:22} {cold_ms:>10.1} ms cold  {warm_ms:>10.1} ms warm  ({ratio:>5.3}x)");
        rows.push(format!(
            "    {{\"case\": \"{name}\", \"cold_ms\": {cold_ms:.2}, \"warm_ms\": {warm_ms:.2}, \
             \"ratio\": {ratio:.4}}}"
        ));
        cold_total += cold_ms;
        warm_total += warm_ms;
    }
    let ratio = warm_total / cold_total;
    println!(
        "total: {cold_total:.1} ms cold, {warm_total:.1} ms warm, warm/cold = {ratio:.3} \
         (warm replay {:.1}x faster, {} cases)",
        cold_total / warm_total,
        cold.len()
    );
    let final_stats = Client::new(&addr).server_stats().expect("stats");
    println!("{final_stats}");
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);

    let lookups_json = lookup_rows
        .iter()
        .map(|(c, per_s)| format!("    {{\"clients\": {c}, \"lookups_per_s\": {per_s:.0}}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"served_lookups\",\n  \"population\": {POPULATION},\n  \
         \"lookups_per_client\": {LOOKUPS_PER_CLIENT},\n  \"lookup_throughput\": [\n{}\n  ],\n  \
         \"cases_total\": {},\n  \"cold_total_ms\": {:.2},\n  \"warm_total_ms\": {:.2},\n  \
         \"warm_cold_ratio\": {:.4},\n  \"warm_speedup\": {:.2},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        lookups_json,
        cold.len(),
        cold_total,
        warm_total,
        ratio,
        cold_total / warm_total,
        rows.join(",\n")
    );
    let out = std::env::var("ORAQL_BENCH_OUT").unwrap_or_else(|_| "BENCH_served.json".into());
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
