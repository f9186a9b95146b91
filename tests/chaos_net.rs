//! The wire-chaos capstone: a generated ground-truth corpus driven
//! through a live verdict server under the full network-fault matrix —
//! connection resets, torn and garbled frames, injected delays and
//! hangs, admission-control shedding (`BUSY`), and a simulated daemon
//! crash mid-run — with the PR 9 soundness gate armed the whole time.
//! The contract: chaos on the wire costs retries and fallbacks, never
//! verdicts. Every run must be byte-identical to the fault-free local
//! run, with zero soundness violations and zero missed optimism
//! beyond the baseline's.
//!
//! Also pins the fault-site table in `docs/ARCHITECTURE.md` §6 against
//! `oraql_faults::SITES`, so a new site cannot ship undocumented.

use std::sync::Arc;
use std::time::Duration;

use oraql_suite::gen::{suite, GenPlan};
use oraql_suite::oraql::faults::{FaultInjector, FaultPlan, FaultSite, Rate, SITES};
use oraql_suite::oraql::served::{Client, ClientOptions, CrashMode, Server, ServerOptions};
use oraql_suite::oraql::store::Space;
use oraql_suite::oraql::TestCase;
use oraql_suite::oraql::{run_suite, DriverOptions, DriverResult, TruthReport};

/// ≥256 cases, per the acceptance bar: every motif family, three
/// variants per case, fixed seed so the corpus (and hence the baseline
/// decisions) are pinned.
const PLAN: &str = "seed=77,cases=256,motifs=red+outlined+aos+csr+halo,per=3";

/// Fresh scratch directory, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("oraql_chaosnet_{tag}_{}", std::process::id()));
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

/// Runs the corpus with the soundness gate armed, unwrapping any
/// driver error (a `SoundnessViolation` anywhere fails loudly here).
fn run_gated(
    cases: &[TestCase],
    truth: &oraql_suite::oraql::GroundTruth,
    mut opts: DriverOptions,
) -> (Vec<DriverResult>, TruthReport, u64) {
    opts.ground_truth = Some(Arc::new(truth.clone()));
    opts.jobs = 4;
    let mut total_truth = TruthReport::default();
    let mut server_busy = 0u64;
    let results: Vec<DriverResult> = cases
        .iter()
        .zip(run_suite(cases, &opts))
        .map(|(case, r)| {
            let r = r.unwrap_or_else(|e| panic!("{}: {e}", case.name));
            total_truth.absorb(r.truth.as_ref().expect("gate armed"));
            server_busy += r.failures.server_busy;
            r
        })
        .collect();
    (results, total_truth, server_busy)
}

/// Byte-level agreement on everything the driver decides.
fn assert_same_results(tag: &str, baseline: &[DriverResult], chaotic: &[DriverResult]) {
    assert_eq!(baseline.len(), chaotic.len());
    for (i, (a, b)) in baseline.iter().zip(chaotic).enumerate() {
        assert_eq!(
            a.decisions, b.decisions,
            "{tag}: case {i} decisions drifted"
        );
        assert_eq!(a.fully_optimistic, b.fully_optimistic, "{tag}: case {i}");
        assert_eq!(a.oraql, b.oraql, "{tag}: case {i}");
        assert_eq!(a.no_alias_original, b.no_alias_original, "{tag}: case {i}");
        assert_eq!(a.no_alias_oraql, b.no_alias_oraql, "{tag}: case {i}");
        assert_eq!(
            a.final_run.stdout, b.final_run.stdout,
            "{tag}: case {i} final output drifted"
        );
    }
}

/// The capstone matrix. One fault seed keeps the wire merely hostile,
/// one adds overload (a single admission slot, so `BUSY` shedding is
/// guaranteed at jobs 4), and one arms a simulated crash point that
/// takes the daemon down mid-run and leaves the driver on its local
/// fallback. All three must reproduce the fault-free run exactly.
#[test]
fn chaos_matrix_preserves_verdicts_byte_for_byte() {
    oraql_suite::oraql::faults::quiet_injected_panics();
    let plan = GenPlan::parse(PLAN).unwrap();
    let (cases, truth) = suite(&plan);
    assert!(cases.len() >= 256, "acceptance floor: got {}", cases.len());

    let (baseline, base_truth, _) = run_gated(&cases, &truth, DriverOptions::default());
    assert!(base_truth.clean(), "{}", base_truth.describe_violations());
    assert_eq!(
        base_truth.missed_optimism, 0,
        "fault-free baseline missed optimism"
    );
    assert!(base_truth.checked > 0 && base_truth.optimism_confirmed > 0);

    let mut total_retries = 0u64;
    let mut total_busy = 0u64;
    let mut saw_crash = false;
    for (fault_seed, overload, crash) in
        [(1u64, false, false), (42, true, false), (1337, false, true)]
    {
        let tag = format!("seed={fault_seed}");
        let scratch = Scratch::new(&tag);
        let mut fp = FaultPlan::quiet(fault_seed)
            .with_rate(FaultSite::ConnReset, Rate::new(1, 16))
            .with_rate(FaultSite::FrameTorn, Rate::new(1, 24))
            .with_rate(FaultSite::FrameGarble, Rate::new(1, 16))
            .with_rate(FaultSite::ResponseDelay, Rate::new(1, 8))
            .with_rate(FaultSite::ResponseHang, Rate::new(1, 512));
        if crash {
            fp = fp.with_rate(FaultSite::CrashPoint, Rate::new(1, 640));
        }
        let mut config = ServerOptions::new(&scratch.0);
        config.faults = Some(Arc::new(FaultInjector::new(fp)));
        config.crash_mode = CrashMode::Simulate;
        config.fault_hang = Duration::from_millis(200);
        if overload {
            config.max_inflight = 1;
            config.request_deadline = Duration::from_millis(1);
        }
        let server = Server::start(&config, "127.0.0.1:0").unwrap();

        let client = Arc::new(Client::with_options(
            &server.addr(),
            ClientOptions {
                timeout: Duration::from_millis(300),
                cooldown: Duration::from_millis(20),
                max_retries: 3,
                seed: fault_seed,
                ..ClientOptions::default()
            },
        ));
        let opts = DriverOptions {
            server: Some(Arc::clone(&client)),
            ..Default::default()
        };
        // Overload is a multi-tenant phenomenon: one client serializes
        // its requests over one connection, so a single driver can
        // never overrun the admission slot by itself. Noisy neighbor
        // tenants hold the slot (and its injected response delays)
        // while the driver's requests contend for admission.
        let stop_noise = std::sync::atomic::AtomicBool::new(false);
        let (chaotic, chaos_truth, server_busy) = std::thread::scope(|s| {
            let mut noise = Vec::new();
            if overload {
                for n in 0..3u64 {
                    let addr = server.addr();
                    let stop_noise = &stop_noise;
                    noise.push(s.spawn(move || {
                        let tenant = Client::with_options(
                            &addr,
                            ClientOptions {
                                timeout: Duration::from_millis(300),
                                cooldown: Duration::from_millis(5),
                                max_retries: 0,
                                seed: 0xb0b + n,
                                ..ClientOptions::default()
                            },
                        );
                        let mut k = n;
                        while !stop_noise.load(std::sync::atomic::Ordering::Relaxed) {
                            let _ = tenant.get(Space::Dec, k);
                            k = k.wrapping_add(3);
                        }
                    }));
                }
            }
            let out = run_gated(&cases, &truth, opts);
            stop_noise.store(true, std::sync::atomic::Ordering::Relaxed);
            for h in noise {
                h.join().unwrap();
            }
            out
        });

        // The heart of the matter: chaos cost effort, never verdicts.
        assert_same_results(&tag, &baseline, &chaotic);
        assert!(
            chaos_truth.clean(),
            "{tag}: {}",
            chaos_truth.describe_violations()
        );
        assert_eq!(
            chaos_truth.missed_optimism, base_truth.missed_optimism,
            "{tag}: wire faults may not cost optimism"
        );

        let cs = client.stats();
        total_retries += cs.retries;
        total_busy += cs.busy;
        if overload {
            assert!(
                cs.busy > 0 && server_busy > 0,
                "{tag}: single-slot server never shed at jobs 4 ({cs})"
            );
            assert!(server.shed_count() > 0, "{tag}");
        }
        if server.is_crashed() {
            saw_crash = true;
            // The simulated crash is recoverable exactly like a real
            // one: a fresh daemon over the same directory replays the
            // journals and serves what was acked before the lights
            // went out.
            let _ = server.shutdown();
            let reopened = Server::start(&ServerOptions::new(&scratch.0), "127.0.0.1:0").unwrap();
            if cs.appends > 0 {
                assert!(
                    reopened.indexed_records() > 0,
                    "{tag}: acked appends vanished across the crash restart"
                );
            }
            reopened.shutdown().unwrap();
        } else {
            let _ = server.shutdown();
        }
    }
    assert!(total_retries > 0, "the chaos matrix never forced a retry");
    assert!(total_busy > 0, "the chaos matrix never shed a request");
    assert!(
        saw_crash,
        "the crash-point seed never took the daemon down mid-run"
    );
}

/// Drift check: every fault site the injector knows must appear, by
/// its wire name, in the §6 failure-model table of
/// `docs/ARCHITECTURE.md`. New sites cannot ship undocumented.
#[test]
fn architecture_doc_lists_every_fault_site() {
    let doc_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/ARCHITECTURE.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc_path.display()));
    let section = doc
        .split("## 6.")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("ARCHITECTURE.md lost its §6 failure-model section");
    for site in SITES {
        let name = format!("`{}`", site.as_str());
        assert!(
            section.contains(&name),
            "fault site {name} missing from the §6 table in docs/ARCHITECTURE.md"
        );
    }
}
