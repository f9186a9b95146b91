//! End-to-end coverage for the verdict server (`oraql-served`) as the
//! driver's third cache tier: warm replay through the daemon, write-back
//! of server answers into the local store, many concurrent tenants,
//! graceful fallback when the daemon is down, and recovery after a kill
//! mid-append. Also pins the wire protocol to the worked example in
//! `docs/PROTOCOL.md` so code and docs cannot drift.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use oraql::store::Space;
use oraql::trace::TraceSink;
use oraql::{Driver, DriverOptions, DriverResult, ProbeKind, Store};
use oraql_served::{Client, Server, ServerOptions};
use oraql_workloads as workloads;

/// Fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("oraql_served_it_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn data(&self) -> PathBuf {
        self.0.join("data")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_with(name: &str, opts: DriverOptions) -> DriverResult {
    let case = workloads::find_case(name).expect(name);
    Driver::run(&case, opts).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn run_with_server(name: &str, client: &Arc<Client>) -> DriverResult {
    run_with(
        name,
        DriverOptions {
            server: Some(Arc::clone(client)),
            ..Default::default()
        },
    )
}

fn assert_same_result(name: &str, a: &DriverResult, b: &DriverResult) {
    assert_eq!(a.decisions, b.decisions, "{name}");
    assert_eq!(a.fully_optimistic, b.fully_optimistic, "{name}");
    assert_eq!(a.oraql, b.oraql, "{name}");
    assert_eq!(a.no_alias_original, b.no_alias_original, "{name}");
    assert_eq!(a.no_alias_oraql, b.no_alias_oraql, "{name}");
    assert_eq!(a.final_run.stdout, b.final_run.stdout, "{name}");
}

/// A cold run writes its verdicts through to the daemon; a fresh driver
/// process (fresh caches, fresh client, no local store) then replays
/// the whole search from the server tier alone — zero probe compiles,
/// byte-identical decisions.
#[test]
fn warm_run_through_server_is_compile_free() {
    let scratch = Scratch::new("warm");
    let server = Server::start(&ServerOptions::new(scratch.data()), "127.0.0.1:0").unwrap();

    let cold_client = Arc::new(Client::new(&server.addr()));
    let cold = run_with_server("testsnap_omp", &cold_client);
    assert!(!cold.fully_optimistic);
    assert!(cold.effort.tests_run > 0);
    assert!(cold_client.stats().appends > 0, "{}", cold_client.stats());
    assert_eq!(cold.failures.server_down, 0, "{:?}", cold.failures);

    // Fresh client == fresh tenant: nothing local, everything remote.
    let warm_client = Arc::new(Client::new(&server.addr()));
    let warm = run_with_server("testsnap_omp", &warm_client);
    assert_same_result("testsnap_omp", &cold, &warm);
    assert_eq!(warm.effort.tests_run, 0, "{:?}", warm.effort);
    assert_eq!(warm.effort.compiles, 0, "{:?}", warm.effort);
    assert!(warm.effort.tests_server > 0, "{:?}", warm.effort);
    let cs = warm_client.stats();
    assert!(cs.hits > 0, "{cs}");
    assert_eq!(cs.io_errors, 0, "{cs}");

    server.shutdown().unwrap();
}

/// A hit is written back to exactly the tiers that missed before it. A
/// server answer lands in the local store, so a later run with only that
/// store is compile-free and answered by the store alone; and a run the
/// store answers entirely writes nothing past it — the server receives
/// nothing at all.
#[test]
fn server_answers_are_written_back_to_the_store() {
    let name = "testsnap_omp";
    let scratch = Scratch::new("writeback");
    let server = Server::start(&ServerOptions::new(scratch.data()), "127.0.0.1:0").unwrap();
    let cold = run_with_server(name, &Arc::new(Client::new(&server.addr())));
    assert!(cold.effort.tests_run > 0, "{:?}", cold.effort);

    // A fresh store in front of the populated server: the server
    // answers each decision vector the first time it is probed, and the
    // written-back record answers every repeat.
    let store = Arc::new(Store::open(scratch.0.join("verdicts.journal")).unwrap());
    let with_store = |client: Option<&Arc<Client>>, trace: &TraceSink| {
        run_with(
            name,
            DriverOptions {
                store: Some(Arc::clone(&store)),
                server: client.map(Arc::clone),
                trace: Some(trace.clone()),
                ..Default::default()
            },
        )
    };
    let relay_trace = TraceSink::in_memory();
    let relay = with_store(Some(&Arc::new(Client::new(&server.addr()))), &relay_trace);
    assert_same_result(name, &cold, &relay);
    assert_eq!(relay.effort.compiles, 0, "{:?}", relay.effort);
    assert!(relay.effort.tests_server > 0, "{:?}", relay.effort);
    let mut seen = HashSet::new();
    let mut answered = 0;
    for e in relay_trace.events() {
        match e.kind {
            ProbeKind::Deduced => continue,
            ProbeKind::ServerHit => assert!(seen.insert(e.digest), "asked twice: {e:?}"),
            ProbeKind::StoreHit => assert!(seen.contains(&e.digest), "{e:?}"),
            other => panic!("{name}: {other:?} answered a warm probe"),
        }
        assert_eq!(
            store.verdict(Space::Dec, e.digest),
            Some((e.pass, e.unique))
        );
        answered += 1;
    }

    // The store alone now replays the whole search.
    let local_trace = TraceSink::in_memory();
    let local = with_store(None, &local_trace);
    assert_same_result(name, &cold, &local);
    assert_eq!(local.effort.compiles, 0, "{:?}", local.effort);
    assert_eq!(local.effort.tests_server, 0, "{:?}", local.effort);
    let kinds: Vec<_> = local_trace.events().iter().map(|e| e.kind).collect();
    assert_eq!(kinds.len(), answered + local.effort.tests_deduced as usize);
    assert!(kinds
        .iter()
        .all(|k| matches!(k, ProbeKind::StoreHit | ProbeKind::Deduced)));

    // Store plus server: the store answers first, so nothing is looked
    // up or appended remotely.
    let quiet = Arc::new(Client::new(&server.addr()));
    let both = with_store(Some(&quiet), &TraceSink::in_memory());
    assert_same_result(name, &cold, &both);
    assert_eq!(both.effort.tests_server, 0, "{:?}", both.effort);
    let cs = quiet.stats();
    assert_eq!((cs.lookups, cs.hits, cs.appends), (0, 0, 0), "{cs}");

    server.shutdown().unwrap();
}

/// Many tenants, one corpus: concurrent drivers (each with its own
/// connection) populate the same daemon — including two racing runs of
/// the *same* case — and every later warm pass is compile-free and
/// identical to the cold result.
#[test]
fn concurrent_tenants_build_one_shared_corpus() {
    let names = ["testsnap", "testsnap_omp", "gridmini"];
    let scratch = Scratch::new("tenants");
    let server = Server::start(&ServerOptions::new(scratch.data()), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Cold: one thread per case, plus a second racer on the first case.
    let mut cold: Vec<(String, DriverResult)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for name in names.iter().chain([&names[0]]) {
            let addr = addr.clone();
            handles.push(s.spawn(move || {
                let client = Arc::new(Client::new(&addr));
                (name.to_string(), run_with_server(name, &client))
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // The racing duplicate of names[0] must agree with its twin: shared
    // server state never changes a verdict, only who pays for it.
    let racer = cold.pop().unwrap();
    let twin = cold.iter().find(|(n, _)| *n == racer.0).unwrap();
    assert_same_result(&racer.0, &twin.1, &racer.1);

    for (name, cold) in &cold {
        let client = Arc::new(Client::new(&addr));
        let warm = run_with_server(name, &client);
        assert_same_result(name, cold, &warm);
        assert_eq!(warm.effort.tests_run, 0, "{name}: {:?}", warm.effort);
        assert_eq!(warm.effort.compiles, 0, "{name}: {:?}", warm.effort);
    }

    server.shutdown().unwrap();
}

/// A dead daemon must never fail a probe: with a local store attached,
/// the run classifies the outage (`server_down`), falls back to the
/// local tiers, and converges to the same result as a server-less run.
#[test]
fn dead_server_falls_back_to_local_store() {
    // An address nothing listens on: bind an ephemeral port, note it,
    // drop the listener.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let scratch = Scratch::new("dead");
    let store = Arc::new(Store::open(scratch.0.join("verdicts.journal")).unwrap());
    let client = Arc::new(Client::new(&dead_addr));

    let degraded = run_with(
        "testsnap",
        DriverOptions {
            store: Some(Arc::clone(&store)),
            server: Some(Arc::clone(&client)),
            ..Default::default()
        },
    );
    assert!(degraded.failures.server_down > 0, "{:?}", degraded.failures);
    assert_eq!(degraded.effort.tests_server, 0, "{:?}", degraded.effort);
    let cs = client.stats();
    assert!(cs.io_errors > 0, "{cs}");
    // The circuit breaker turned most of the outage into fast-fails
    // instead of per-probe connect attempts.
    assert!(cs.fast_fails > 0, "{cs}");

    // The degraded run still found exactly what a server-less run finds.
    let plain = run_with("testsnap", DriverOptions::default());
    assert_same_result("testsnap", &plain, &degraded);
    // An outage never consumes sandbox retries or quarantines probes.
    assert_eq!(degraded.failures.quarantined, 0, "{:?}", degraded.failures);

    // And the local store absorbed the run: a warm local pass is
    // compile-free even though the server never answered.
    store.sync().unwrap();
    let warm = run_with(
        "testsnap",
        DriverOptions {
            store: Some(Arc::clone(&store)),
            ..Default::default()
        },
    );
    assert_same_result("testsnap", &plain, &warm);
    assert_eq!(warm.effort.compiles, 0, "{:?}", warm.effort);
}

/// SIGKILL mid-append: after a populated daemon dies leaving a torn
/// half-record at its journal's tail, a restarted daemon must drop
/// exactly the torn tail (visible in STATS), keep every acked verdict,
/// and serve a compile-free warm replay.
#[test]
fn killed_mid_append_server_recovers() {
    let scratch = Scratch::new("kill");
    let config = ServerOptions::new(scratch.data());
    let server = Server::start(&config, "127.0.0.1:0").unwrap();
    let client = Arc::new(Client::new(&server.addr()));
    let cold = run_with_server("gridmini", &client);
    client.sync().unwrap();
    server.shutdown().unwrap();

    // A kill mid-append leaves a record header whose payload never made
    // it to disk. Forge exactly that at the journal's tail.
    let journal = scratch.data().join("verdicts.journal");
    let mut bytes = std::fs::read(&journal).unwrap();
    assert!(!bytes.is_empty());
    bytes.extend_from_slice(&[1u8]); // tag
    bytes.extend_from_slice(&200u32.to_le_bytes()); // payload length…
    bytes.extend_from_slice(&[0xab, 0xcd]); // …but only 2 bytes follow
    std::fs::write(&journal, &bytes).unwrap();

    let server = Server::start(&config, "127.0.0.1:0").unwrap();
    let client = Arc::new(Client::new(&server.addr()));
    let stats = client.server_stats().unwrap();
    assert!(stats.contains("1 torn dropped"), "{stats}");

    let warm = run_with_server("gridmini", &client);
    assert_same_result("gridmini", &cold, &warm);
    assert_eq!(warm.effort.tests_run, 0, "{:?}", warm.effort);
    assert_eq!(warm.effort.compiles, 0, "{:?}", warm.effort);

    server.shutdown().unwrap();
}

/// Drift check: the worked hex example in `docs/PROTOCOL.md` must be
/// exactly what the protocol module puts on the wire, and every op and
/// status byte must be documented.
#[test]
fn protocol_docs_match_the_wire() {
    use oraql_served::protocol::{Op, Request, Response, Status, VERSION};

    let doc_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/PROTOCOL.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc_path.display()));

    // The worked example: `request:` / `response:` lines of hex bytes.
    // (The framing section reuses the same prefixes for field diagrams,
    // so keep only the candidate whose every token parses as hex.)
    let hex_line = |prefix: &str| -> Vec<u8> {
        doc.lines()
            .filter_map(|l| l.trim().strip_prefix(prefix))
            .find_map(|rest| {
                rest.split_whitespace()
                    .map(|t| u8::from_str_radix(t, 16).ok())
                    .collect::<Option<Vec<u8>>>()
                    .filter(|bytes| !bytes.is_empty())
            })
            .unwrap_or_else(|| panic!("no `{prefix}` hex line in PROTOCOL.md worked example"))
    };
    let req = Request::Get {
        space: Space::Dec,
        key: 0x0123_4567_89ab_cdef,
    };
    assert_eq!(
        hex_line("request:"),
        req.encode(0x42),
        "documented request frame drifted"
    );
    let resp = Response::Verdict((true, 42));
    assert_eq!(
        hex_line("response:"),
        resp.encode(0x42),
        "documented response frame drifted"
    );

    // Every op byte and status byte appears in the doc's tables.
    for op in [
        Op::Ping,
        Op::GetDec,
        Op::GetExe,
        Op::PutDec,
        Op::PutExe,
        Op::Stats,
        Op::Sync,
        Op::Compact,
        Op::Metrics,
    ] {
        let byte = format!("`0x{:02x}`", op as u8);
        assert!(
            doc.contains(&byte),
            "op byte {byte} missing from PROTOCOL.md"
        );
        let name = format!("{op:?}");
        assert!(
            doc.contains(&name),
            "op name {name} missing from PROTOCOL.md"
        );
    }
    for status in [
        Status::Ok,
        Status::NotFound,
        Status::BadFrame,
        Status::BadOp,
        Status::BadVersion,
        Status::Io,
        Status::Busy,
    ] {
        let byte = format!("`0x{:02x}`", status as u8);
        assert!(
            doc.contains(&byte),
            "status byte {byte} missing from PROTOCOL.md"
        );
        assert!(
            doc.contains(status.as_str()),
            "status name {} missing from PROTOCOL.md",
            status.as_str()
        );
    }
    assert!(
        doc.contains(&format!("version byte is `{VERSION}`")),
        "documented protocol version drifted"
    );
}
