//! Wire-level chaos against an in-process daemon: the client's
//! idempotent retries must absorb connection resets, torn frames,
//! garbled bytes, and injected delays without ever surfacing a wrong
//! answer, and fsync failures must never lose an acked write.

use std::sync::Arc;
use std::time::{Duration, Instant};

use oraql_faults::{FaultInjector, FaultPlan, FaultSite, Rate};
use oraql_served::{Client, ClientError, ClientOptions, CrashMode, Server, ServerOptions};
use oraql_store::Space;

/// Fresh scratch directory, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("oraql_wirechaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Keep calling `f` until it succeeds — the breaker may be open or the
/// retry budget exhausted mid-storm, and that is allowed; what is not
/// allowed is failing to converge, or converging to a wrong value.
fn eventually<T>(what: &str, mut f: impl FnMut() -> Result<T, ClientError>) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match f() {
            Ok(v) => return v,
            Err(e) => {
                assert!(Instant::now() < deadline, "{what}: never converged: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// The expected verdict for key `k` — a pure function, so a garbled
/// frame that slipped through would show up as a value mismatch, not
/// just an error.
fn verdict(k: u64) -> (bool, u64) {
    (k.is_multiple_of(3), k.wrapping_mul(0x9e37_79b9))
}

/// Every wire fault class at once, at rates hot enough that each one
/// demonstrably fires, against a single client doing real work: all
/// writes land, all reads return exactly what was written, and the
/// client's retry counters show the chaos was absorbed rather than
/// avoided.
#[test]
fn retries_absorb_every_wire_fault_class() {
    let scratch = Scratch::new("absorb");
    let plan = FaultPlan::quiet(42)
        .with_rate(FaultSite::ConnReset, Rate::new(1, 8))
        .with_rate(FaultSite::FrameTorn, Rate::new(1, 9))
        .with_rate(FaultSite::FrameGarble, Rate::new(1, 7))
        .with_rate(FaultSite::ResponseDelay, Rate::new(1, 4));
    let mut config = ServerOptions::new(&scratch.0);
    config.faults = Some(Arc::new(FaultInjector::new(plan)));
    config.crash_mode = CrashMode::Simulate;
    let server = Server::start(&config, "127.0.0.1:0").unwrap();

    let client = Client::with_options(
        &server.addr(),
        ClientOptions {
            timeout: Duration::from_millis(500),
            cooldown: Duration::from_millis(20),
            max_retries: 4,
            seed: 7,
            ..ClientOptions::default()
        },
    );

    const KEYS: u64 = 160;
    for k in 0..KEYS {
        let (pass, unique) = verdict(k);
        eventually("put", || client.put(Space::Dec, k, (pass, unique)));
    }
    for k in 0..KEYS {
        let got = eventually("get", || client.get(Space::Dec, k));
        assert_eq!(got, Some(verdict(k)), "key {k} came back wrong");
    }

    // The storm actually happened: every armed site fired, and the
    // client paid retries (not errors surfaced to the caller).
    let summary = server.fault_summary();
    for site in [
        FaultSite::ConnReset,
        FaultSite::FrameTorn,
        FaultSite::FrameGarble,
        FaultSite::ResponseDelay,
    ] {
        let fired = summary
            .iter()
            .find(|(s, _, _)| *s == site)
            .map(|(_, _, f)| *f)
            .unwrap_or(0);
        assert!(fired > 0, "{} never fired: {summary:?}", site.as_str());
    }
    let cs = client.stats();
    assert!(
        cs.retries > 0,
        "chaos absorbed without a single retry? {cs}"
    );

    server.shutdown().unwrap();
}

/// A garbled response can never be *served*: the frame checksum turns
/// the flip into a transport error, so the value that finally comes
/// back is byte-exact even when every fourth frame is corrupted.
#[test]
fn garbled_frames_never_yield_wrong_values() {
    let scratch = Scratch::new("garble");
    let plan = FaultPlan::quiet(1337).with_rate(FaultSite::FrameGarble, Rate::new(1, 4));
    let mut config = ServerOptions::new(&scratch.0);
    config.faults = Some(Arc::new(FaultInjector::new(plan)));
    config.crash_mode = CrashMode::Simulate;
    let server = Server::start(&config, "127.0.0.1:0").unwrap();

    let client = Client::with_options(
        &server.addr(),
        ClientOptions {
            cooldown: Duration::from_millis(10),
            max_retries: 6,
            seed: 99,
            ..ClientOptions::default()
        },
    );
    for k in 0..96u64 {
        let (pass, unique) = verdict(k);
        eventually("put", || client.put(Space::Exe, k, (pass, unique)));
        let got = eventually("get", || client.get(Space::Exe, k));
        assert_eq!(got, Some(verdict(k)), "key {k}");
    }
    assert!(
        server
            .fault_summary()
            .iter()
            .any(|(s, _, f)| *s == FaultSite::FrameGarble && *f > 0),
        "frame-garble never fired"
    );
    server.shutdown().unwrap();
}

/// `fsync-fail` firing on every group-fsync pass costs durability
/// *timing*, never durability: the journal appends still happen, the
/// journal stays dirty and keeps retrying, and a restart over the same
/// directory serves every acked write.
#[test]
fn fsync_failures_do_not_lose_acked_writes() {
    let scratch = Scratch::new("fsyncfail");
    let plan = FaultPlan::quiet(5).with_rate(FaultSite::FsyncFail, Rate::always());
    let mut config = ServerOptions::new(&scratch.0);
    config.fsync_interval = Duration::from_millis(5);
    config.faults = Some(Arc::new(FaultInjector::new(plan)));
    config.crash_mode = CrashMode::Simulate;
    let server = Server::start(&config, "127.0.0.1:0").unwrap();

    let client = Client::new(&server.addr());
    const KEYS: u64 = 64;
    for k in 0..KEYS {
        let (pass, unique) = verdict(k);
        client.put(Space::Dec, k, (pass, unique)).unwrap();
    }
    // Give the fsync thread time to (fail to) sync a few times.
    std::thread::sleep(Duration::from_millis(50));
    let summary = server.fault_summary();
    assert!(
        summary
            .iter()
            .any(|(s, _, f)| *s == FaultSite::FsyncFail && *f > 0),
        "fsync-fail never fired: {summary:?}"
    );
    let _ = server.shutdown();

    // Restart clean: every acked write is there.
    let reopened = Server::start(&ServerOptions::new(&scratch.0), "127.0.0.1:0").unwrap();
    let client = Client::new(&reopened.addr());
    for k in 0..KEYS {
        assert_eq!(
            client.get(Space::Dec, k).unwrap(),
            Some(verdict(k)),
            "key {k}"
        );
    }
    reopened.shutdown().unwrap();
}

/// BUSY is terminal per call, cheap, and honest: a saturated server
/// sheds instead of queueing, the shed request is *not* executed, and
/// the client surfaces `ClientError::Busy` without burning its retry
/// budget or tripping the breaker.
#[test]
fn busy_is_not_retried_and_does_not_trip_the_breaker() {
    let scratch = Scratch::new("busy");
    let plan = FaultPlan::quiet(8).with_rate(FaultSite::ResponseHang, Rate::new(1, 2));
    let mut config = ServerOptions::new(&scratch.0);
    config.max_inflight = 1;
    config.request_deadline = Duration::from_millis(20);
    config.fault_hang = Duration::from_millis(400);
    config.faults = Some(Arc::new(FaultInjector::new(plan)));
    config.crash_mode = CrashMode::Simulate;
    let server = Server::start(&config, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let opts = ClientOptions {
        timeout: Duration::from_millis(900),
        cooldown: Duration::from_millis(50),
        max_retries: 1,
        seed: 3,
        ..ClientOptions::default()
    };
    let mut saw_busy = 0u64;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let addr = addr.clone();
            let opts = opts.clone();
            handles.push(s.spawn(move || {
                let client = Client::with_options(&addr, opts);
                let mut busy = 0u64;
                for i in 0..8u64 {
                    if let Err(ClientError::Busy) = client.get(Space::Dec, t * 100 + i) {
                        busy += 1;
                    }
                }
                let cs = client.stats();
                assert_eq!(cs.busy, busy, "{cs}");
                busy
            }));
        }
        for h in handles {
            saw_busy += h.join().unwrap();
        }
    });
    assert!(saw_busy > 0, "saturated single-slot server never shed");
    assert!(server.shed_count() > 0);
    let _ = server.shutdown();
}
