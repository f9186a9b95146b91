//! Reconnect-storm behavior: a fleet of clients hammering a dead
//! server must all recover once it is revived on the same address, and
//! their jittered backoff must actually *spread* the reconnect wave
//! instead of synchronizing it (the thundering-herd failure mode).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use oraql_served::{backoff_delay, Client, ClientOptions, Server, ServerOptions};
use oraql_store::Space;

/// N clients start against an address nothing listens on, retry
/// through their breakers, and must all converge — with their own data
/// intact — after the server comes up mid-storm on that same address.
#[test]
fn client_fleet_recovers_from_dead_then_revived_server() {
    const FLEET: usize = 8;

    let scratch = std::env::temp_dir().join(format!("oraql_storm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();

    // Reserve a concrete port by binding and dropping; the storm rages
    // against it while it is closed, then the server claims it.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };

    let barrier = Barrier::new(FLEET + 1);
    let revived = AtomicBool::new(false);
    let server_slot: std::sync::Mutex<Option<Server>> = std::sync::Mutex::new(None);

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for i in 0..FLEET as u64 {
            let (addr, barrier, revived) = (&addr, &barrier, &revived);
            handles.push(s.spawn(move || {
                let client = Client::with_options(
                    addr,
                    ClientOptions {
                        timeout: Duration::from_millis(300),
                        cooldown: Duration::from_millis(50),
                        max_retries: 2,
                        seed: 0xf1ee7 + i,
                        ..ClientOptions::default()
                    },
                );
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs(20);
                let mut failures_before_revival = 0u64;
                loop {
                    match client.put(Space::Dec, i, (i % 2 == 0, i * 31)) {
                        Ok(()) => break,
                        Err(_) => {
                            if !revived.load(Ordering::Acquire) {
                                failures_before_revival += 1;
                            }
                            assert!(
                                Instant::now() < deadline,
                                "client {i} never recovered after revival"
                            );
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
                let cs = client.stats();
                (i, failures_before_revival, cs)
            }));
        }

        // Let the fleet beat on the closed port for a bit, then revive.
        barrier.wait();
        std::thread::sleep(Duration::from_millis(400));
        let server = Server::start(&ServerOptions::new(&scratch), &addr).unwrap();
        revived.store(true, Ordering::Release);

        let mut results = Vec::new();
        for h in handles {
            results.push(h.join().unwrap());
        }
        // Every client genuinely weathered an outage (no lucky early
        // bind) and then recovered...
        for (i, failures, cs) in &results {
            assert!(*failures > 0, "client {i} never saw the outage: {cs}");
            assert!(cs.io_errors > 0 || cs.fast_fails > 0, "client {i}: {cs}");
        }
        // ...and the writes all landed.
        let check = Client::new(&addr);
        for i in 0..FLEET as u64 {
            assert_eq!(
                check.get(Space::Dec, i).unwrap(),
                Some((i % 2 == 0, i * 31)),
                "client {i}'s write lost in the storm"
            );
        }
        *server_slot.lock().unwrap() = Some(server);
    });

    server_slot
        .into_inner()
        .unwrap()
        .expect("server started")
        .shutdown()
        .unwrap();
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The backoff schedule itself, asserted purely (no sockets, no
/// clocks): per-seed jitter de-correlates a fleet retrying the same
/// request at the same attempt, growth is exponential, and the cap
/// holds. This is the property that keeps a revived server from
/// eating a synchronized reconnect spike.
#[test]
fn jittered_backoff_spreads_a_synchronized_fleet() {
    let base = Duration::from_millis(10);
    let cap = Duration::from_millis(200);

    // A fleet that failed the same request at the same moment: the
    // jitter must fan their next attempts out, not stack them.
    let delays: Vec<Duration> = (0..64u64)
        .map(|seed| backoff_delay(0xf1ee7 + seed, 0xdead_beef, 1, base, cap))
        .collect();
    let mut distinct = delays.clone();
    distinct.sort();
    distinct.dedup();
    assert!(
        distinct.len() >= 32,
        "64 seeds produced only {} distinct first-retry delays",
        distinct.len()
    );
    for d in &delays {
        assert!(
            *d >= base / 2 && *d <= base,
            "attempt-1 delay {d:?} out of band"
        );
    }

    // Exponential growth with a hard cap, for every seed.
    for seed in 0..16u64 {
        let late = backoff_delay(seed, 1, 10, base, cap);
        assert!(late <= cap, "cap violated: {late:?}");
        assert!(late >= cap / 2, "late attempt under half the cap: {late:?}");
        let a1 = backoff_delay(seed, 1, 1, base, cap);
        let a4 = backoff_delay(seed, 1, 4, base, cap);
        assert!(
            a4 > a1,
            "no growth between attempt 1 ({a1:?}) and 4 ({a4:?})"
        );
    }

    // Determinism: the schedule is a pure function of its inputs.
    assert_eq!(
        backoff_delay(7, 42, 3, base, cap),
        backoff_delay(7, 42, 3, base, cap)
    );
}
