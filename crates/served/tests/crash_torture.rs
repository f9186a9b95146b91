//! Crash-point recovery torture: run the real `oraql-served` daemon as
//! a child process with an armed `crash-point` fault site
//! (`CrashMode::Abort` — the process genuinely dies mid-request), kill
//! it over and over at injected points, restart it over the same
//! directory, and assert the journal-replay contract after every
//! death: **no acked write is ever lost, and no torn record is ever
//! served** (a surviving key must come back byte-exact, not merely
//! present).

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use oraql_served::{Client, ClientOptions};
use oraql_store::Space;

/// The expected verdict for key `k`; a pure function, so serving a
/// torn or bit-rotted record shows up as a value mismatch.
fn verdict(k: u64) -> (bool, u64) {
    (k % 2 == 1, k.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

struct Torture {
    dir: std::path::PathBuf,
    seed: u64,
    child: Child,
    client: Client,
    kills: u32,
}

impl Torture {
    fn spawn_daemon(dir: &std::path::Path, seed: u64, incarnation: u32) -> (Child, String) {
        // A slow ambient fsync keeps the crash-point draw rate tied to
        // request traffic instead of the fsync ticker, so the daemon
        // reliably survives long enough to ack some writes. The fault
        // seed folds in the incarnation number: each restart's injector
        // starts its draw counter at zero, so reusing the seed verbatim
        // would kill every incarnation at the *same* deterministic
        // point and the torture loop would livelock on one key.
        let fault_seed = seed.wrapping_mul(1000).wrapping_add(incarnation as u64);
        let mut child = Command::new(env!("CARGO_BIN_EXE_oraql-served"))
            .args([
                "serve",
                "--dir",
                dir.to_str().unwrap(),
                "--listen",
                "127.0.0.1:0",
                "--fsync-ms",
                "200",
                "--fault-plan",
                &format!("seed={fault_seed},crash-point=1/24"),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn oraql-served");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon banner");
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap_or_else(|| panic!("unparseable daemon banner: {line:?}"))
            .trim()
            .to_string();
        (child, addr)
    }

    fn new(dir: std::path::PathBuf, seed: u64) -> Torture {
        let (child, addr) = Torture::spawn_daemon(&dir, seed, 0);
        let client = Torture::client_for(&addr);
        Torture {
            dir,
            seed,
            child,
            client,
            kills: 0,
        }
    }

    fn client_for(addr: &str) -> Client {
        Client::with_options(
            addr,
            ClientOptions {
                timeout: Duration::from_millis(500),
                cooldown: Duration::from_millis(10),
                max_retries: 0, // the harness owns retries
                seed: 1,
                ..ClientOptions::default()
            },
        )
    }

    /// After a client error: if the daemon died, wait for the corpse,
    /// restart over the same directory, and hand back `true`. A `false`
    /// means the daemon is still alive (transient failure) — retry.
    fn reap_and_restart(&mut self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(_) => break,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
                None => return false,
            }
        }
        self.kills += 1;
        let (child, addr) = Torture::spawn_daemon(&self.dir, self.seed, self.kills);
        self.child = child;
        self.client = Torture::client_for(&addr);
        true
    }

    /// Every previously acked write must be served byte-exact. The
    /// daemon may crash *again* mid-verification (the plan stays
    /// armed); that just earns another restart and a re-read.
    fn verify(&mut self, acked: &[u64]) {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut i = 0;
        while i < acked.len() {
            let k = acked[i];
            match self.client.get(Space::Dec, k) {
                Ok(got) => {
                    assert_eq!(
                        got,
                        Some(verdict(k)),
                        "seed {}: acked key {k} lost or torn after {} kills",
                        self.seed,
                        self.kills
                    );
                    i += 1;
                }
                Err(e) => {
                    assert!(
                        Instant::now() < deadline,
                        "seed {}: verification never converged: {e}",
                        self.seed
                    );
                    if !self.reap_and_restart() {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }
    }
}

impl Drop for Torture {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The torture loop, per seed: keep appending verdicts until the
/// injected crash points have killed the daemon at least twice, then
/// once more for good measure, verifying the full acked set after
/// every single death.
#[test]
fn acked_writes_survive_repeated_crash_points() {
    for seed in [3u64, 11, 29] {
        let dir =
            std::env::temp_dir().join(format!("oraql_crashtort_{seed}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = Torture::new(dir, seed);

        let mut acked: Vec<u64> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(90);
        let mut k = 0u64;
        while (t.kills < 3 || acked.len() < 48) && acked.len() < 400 {
            assert!(
                Instant::now() < deadline,
                "seed {seed}: torture loop never accumulated enough kills \
                 ({} kills, {} acked)",
                t.kills,
                acked.len()
            );
            let (pass, unique) = verdict(k);
            match t.client.put(Space::Dec, k, (pass, unique)) {
                Ok(()) => {
                    acked.push(k);
                    k += 1;
                }
                Err(_) => {
                    // Unacked: the write may or may not have been
                    // journaled — both outcomes are legal. Re-putting
                    // the same key is safe (idempotent by design).
                    if t.reap_and_restart() {
                        t.verify(&acked);
                    } else {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }
        assert!(
            t.kills >= 3,
            "seed {seed}: crash points never killed the daemon enough ({})",
            t.kills
        );
        t.verify(&acked);
    }
}
