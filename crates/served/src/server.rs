//! The verdict server: sharded journals, a read-mostly index, group
//! fsync, admission control, and a thread-per-connection acceptor pool.
//!
//! # Architecture
//!
//! The daemon owns `shards` independent [`oraql_store::Store`] journals
//! (`shard-NN.journal` under one directory). A record lands in shard
//! `key % shards` — verdict keys and case salts are already
//! well-mixed salted hashes, so this spreads load without any routing
//! table. Each shard pairs its store (durability, dedup, compaction,
//! advisory locking — all inherited from PR 3) with an in-memory
//! [`std::sync::RwLock`]'d map replayed from the journal at startup, so
//! **lookups never touch disk**: a `GET` takes one shard read lock and
//! one hash probe.
//!
//! Writes go journal-first (a `write(2)` append under the store's
//! shared advisory lock), then update the index, then ack — so a
//! client that got its `PUT` acked sees the record in its own later
//! `GET`s, and a crash at *any* point loses at most unacked work (the
//! crash-point torture in `crates/served/tests/crash_torture.rs` pins
//! this). Durability is batched: a background thread group-fsyncs
//! every dirty shard each `fsync_interval` (and at shutdown), bounding
//! the power-loss window to one interval without paying an fsync per
//! append. The `SYNC` op forces a pass for clients that need a hard
//! checkpoint.
//!
//! # Overload: admission control and load shedding
//!
//! Two bounds, both off by default (0 = unbounded) and promoted to CLI
//! flags on the daemon:
//!
//! * `max_inflight` caps concurrently *executing* requests. A request
//!   that cannot get a slot waits up to its op's admission deadline
//!   (`request_deadline` for data ops; 10× that for maintenance ops,
//!   which are rare and humans are watching), then is shed with
//!   [`Response::Busy`] — the request was **not** executed.
//! * `max_conns` caps serving connections. A connection over the cap
//!   gets its first request answered `BUSY` and is closed.
//!
//! Every shed increments `oraql_served_shed_total`; see
//! `docs/OPERATIONS.md` § "Overload & partition playbook".
//!
//! # Chaos hooks
//!
//! When built with a [`oraql_faults::FaultInjector`] (`faults` option /
//! daemon `--fault-plan`), the server injects the wire and daemon
//! fault sites at their natural choke points: the response-write site
//! (`conn-reset`, `frame-torn`, `frame-garble`, `response-delay`,
//! `response-hang`), the group-fsync pass (`fsync-fail`), and the
//! named crash points threaded through the write path (`crash-point`).
//! [`CrashMode`] picks between a real `std::process::abort` (daemon
//! under torture) and a simulated hard stop (in-process servers:
//! connections drop unacked, fsync stops, shutdown skips the final
//! sync — exactly what a kill would leave behind, minus losing the
//! page cache).
//!
//! # Concurrency contract
//!
//! * Acceptor threads share the listener via `try_clone`; each accepted
//!   connection gets its own serving thread (thread-per-connection:
//!   named threads, an atomic shutdown flag, handles joined on drop,
//!   poison-immune locks).
//! * Shard state is `RwLock` per shard: many concurrent readers, one
//!   writer, no cross-shard lock is ever held — two ops deadlock-free
//!   by construction.
//! * [`Server::shutdown`] (also run by `Drop`) stops accepting, wakes
//!   every blocked acceptor, joins every connection thread, and runs a
//!   final group fsync — after it returns, all acked writes are on
//!   disk (unless a simulated crash is in effect, which is the point).

use crate::net::{Addr, Conn, Listener};
use crate::protocol::{read_frame, write_frame, Op, Request, Response, Status};
use oraql_faults::{FaultInjector, FaultSite};
use oraql_store::{Record, Store, StoreError, REF_SEP};
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// What the server does when an injected `crash-point` fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashMode {
    /// `std::process::abort()` — the real thing. Used by the daemon
    /// under the crash-torture harness, which runs it as a child
    /// process and restarts it.
    #[default]
    Abort,
    /// A simulated hard stop for in-process servers (aborting would
    /// take the test down too): every connection drops without acking,
    /// fsync passes stop, and shutdown skips the final sync. The
    /// journal holds exactly what a kill would have left.
    Simulate,
}

/// How a [`Server`] is laid out on disk, sized, and hardened. Plain
/// data; build one, hand it to [`Server::start`]. Every duration and
/// bound here is a daemon CLI flag — see `oraql-served serve --help`
/// and the defaults table in `docs/OPERATIONS.md`.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Directory holding the shard journals (created if missing).
    pub dir: PathBuf,
    /// Number of shard journals (≥ 1). Must stay constant across
    /// restarts of the same `dir` — records do not migrate.
    pub shards: usize,
    /// Acceptor threads sharing the listening socket (≥ 1). Each
    /// accepted connection still gets its own serving thread; this only
    /// bounds how many accepts can be in flight at once.
    pub acceptors: usize,
    /// Group-fsync cadence: the upper bound on how long an acked write
    /// may sit only in the page cache. Default 5 ms.
    pub fsync_interval: Duration,
    /// Per-connection socket write timeout: how long one response write
    /// may block on a stalled peer before the connection is dropped.
    /// Default 10 s.
    pub write_timeout: Duration,
    /// How long a connection thread blocks in `read` before re-checking
    /// the shutdown flag. Bounds shutdown latency, not request latency.
    /// Default 100 ms.
    pub idle_poll: Duration,
    /// Admission cap on concurrently executing requests; `0` means
    /// unbounded (the default). See the module docs on overload.
    pub max_inflight: usize,
    /// Cap on concurrently served connections; `0` means unbounded
    /// (the default). A connection over the cap is answered `BUSY`
    /// once and closed.
    pub max_conns: usize,
    /// Admission deadline for data ops (`GET`/`PUT`) when
    /// `max_inflight` is hit; maintenance ops wait 10× this. Default
    /// 100 ms.
    pub request_deadline: Duration,
    /// How long the `response-hang` fault site sits on a response —
    /// meaningful only under a fault plan; pick it longer than the
    /// client read timeout. Default 3 s.
    pub fault_hang: Duration,
    /// Wire/daemon chaos: a seeded injector consulted at the fault
    /// sites listed in the module docs. `None` (the default) injects
    /// nothing and costs nothing.
    pub faults: Option<Arc<FaultInjector>>,
    /// What an injected `crash-point` does. Irrelevant without
    /// `faults`.
    pub crash_mode: CrashMode,
}

impl ServerOptions {
    /// A config with the defaults: 4 shards, 2 acceptors, 5 ms fsync,
    /// 10 s write timeout, 100 ms idle poll, unbounded admission, no
    /// faults.
    pub fn new(dir: impl Into<PathBuf>) -> ServerOptions {
        ServerOptions {
            dir: dir.into(),
            shards: 4,
            acceptors: 2,
            fsync_interval: Duration::from_millis(5),
            write_timeout: Duration::from_secs(10),
            idle_poll: Duration::from_millis(100),
            max_inflight: 0,
            max_conns: 0,
            request_deadline: Duration::from_millis(100),
            fault_hang: Duration::from_secs(3),
            faults: None,
            crash_mode: CrashMode::default(),
        }
    }
}

/// The in-memory image of one shard's live records. Guarded by the
/// shard's `RwLock`; populated by journal replay at startup, kept in
/// step by every accepted `PUT`.
#[derive(Debug, Default)]
struct ShardIndex {
    dec: HashMap<u64, (bool, u64)>,
    exe: HashMap<u64, (bool, u64)>,
    refs: HashMap<u64, String>,
}

/// Per-shard counters (all monotone, all relaxed — they feed summary
/// text, not synchronization).
#[derive(Debug, Default)]
struct ShardCounters {
    lookups: AtomicU64,
    hits: AtomicU64,
    appends: AtomicU64,
    fsyncs: AtomicU64,
}

struct Shard {
    store: Store,
    index: RwLock<ShardIndex>,
    /// Set by every acked append, cleared by the fsync pass that
    /// persisted it.
    dirty: AtomicBool,
    counters: ShardCounters,
}

impl Shard {
    fn open(path: PathBuf) -> Result<Shard, StoreError> {
        let store = Store::open(path)?;
        let mut index = ShardIndex::default();
        for r in store.export() {
            match r {
                Record::DecVerdict { key, pass, unique } => {
                    index.dec.insert(key, (pass, unique));
                }
                Record::ExeVerdict { key, pass, unique } => {
                    index.exe.insert(key, (pass, unique));
                }
                Record::Reference { key, output } => {
                    index.refs.insert(key, output);
                }
            }
        }
        Ok(Shard {
            store,
            index: RwLock::new(index),
            dirty: AtomicBool::new(false),
            counters: ShardCounters::default(),
        })
    }
}

/// Server-wide counters.
#[derive(Debug, Default)]
struct ServerCounters {
    connections: AtomicU64,
    active: AtomicU64,
    requests: AtomicU64,
    bad_frames: AtomicU64,
    shed: AtomicU64,
    fsync_batches: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// State shared by every acceptor, connection, and the fsync thread.
struct Core {
    shards: Vec<Shard>,
    counters: ServerCounters,
    shutdown: AtomicBool,
    /// Set by a simulated crash-point: the daemon behaves as killed
    /// (see [`CrashMode::Simulate`]).
    crashed: AtomicBool,
    /// Requests currently executing (admitted, not yet answered).
    inflight: AtomicU64,
    dir: PathBuf,
    opts: ServerOptions,
}

impl Core {
    fn shard_of(&self, key: u64) -> &Shard {
        // shards >= 1 is enforced by Server::start.
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    fn note_shed(&self) {
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        static SHED: std::sync::OnceLock<&'static oraql_obs::Counter> = std::sync::OnceLock::new();
        SHED.get_or_init(|| oraql_obs::global().counter("oraql_served_shed_total"))
            .inc();
    }

    /// Consults the fault plan for an injected crash at the named
    /// point. Under [`CrashMode::Abort`] this call does not return.
    fn crash_point(&self, _point: &'static str) {
        let Some(f) = &self.opts.faults else { return };
        if f.fire(FaultSite::CrashPoint) {
            match self.opts.crash_mode {
                CrashMode::Abort => std::process::abort(),
                CrashMode::Simulate => self.crashed.store(true, Ordering::Release),
            }
        }
    }

    fn is_dead(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || self.crashed.load(Ordering::Acquire)
    }

    /// Admission control: claims an execution slot, waiting up to the
    /// op's admission deadline when `max_inflight` is saturated.
    /// Returns `false` — shed, answer `BUSY`, execute nothing — on
    /// deadline. The caller owns one `inflight` decrement iff this
    /// returns `true`.
    fn admit(&self, op: Op) -> bool {
        let max = self.opts.max_inflight as u64;
        if max == 0 {
            self.inflight.fetch_add(1, Ordering::AcqRel);
            return true;
        }
        // Maintenance ops are rare, human-driven, and worth waiting
        // for; data ops shed fast so the driver falls back to its
        // local tiers instead of queueing behind an overload.
        let deadline = match op {
            Op::Stats | Op::Sync | Op::Compact | Op::Metrics => self.opts.request_deadline * 10,
            _ => self.opts.request_deadline,
        };
        let start = Instant::now();
        loop {
            let cur = self.inflight.load(Ordering::Acquire);
            if cur < max {
                if self
                    .inflight
                    .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return true;
                }
                continue; // lost the race, re-read
            }
            if start.elapsed() >= deadline || self.is_dead() {
                self.note_shed();
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// One group-fsync pass: persist every shard dirtied since the last
    /// pass. A shard whose fsync fails (for real or via the
    /// `fsync-fail` site) is re-marked dirty so the next pass retries
    /// instead of silently dropping durability.
    fn sync_dirty(&self) -> io::Result<()> {
        if self.crashed.load(Ordering::Acquire) {
            return Ok(()); // a dead daemon syncs nothing
        }
        self.crash_point("fsync-pass");
        let mut synced = 0u64;
        let mut first_err = None;
        for shard in &self.shards {
            if shard.dirty.swap(false, Ordering::AcqRel) {
                if let Some(f) = &self.opts.faults {
                    if f.fire(FaultSite::FsyncFail) {
                        shard.dirty.store(true, Ordering::Release);
                        first_err.get_or_insert(io::Error::other("injected fsync failure"));
                        continue;
                    }
                }
                match shard.store.sync() {
                    Ok(()) => {
                        shard.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                        synced += 1;
                    }
                    Err(e) => {
                        shard.dirty.store(true, Ordering::Release);
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        if synced > 0 {
            self.counters.fsync_batches.fetch_add(1, Ordering::Relaxed);
            // Batch size = shards flushed by one group fsync: a
            // measure of how well the interval amortizes sync cost.
            static BATCH: std::sync::OnceLock<&'static oraql_obs::Histogram> =
                std::sync::OnceLock::new();
            BATCH
                .get_or_init(|| oraql_obs::global().histogram("oraql_served_fsync_batch_size"))
                .observe(synced);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn get(&self, key: u64, exe: bool) -> Response {
        let shard = self.shard_of(key);
        shard.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let index = shard.index.read().unwrap_or_else(|p| p.into_inner());
        let found = if exe {
            index.exe.get(&key)
        } else {
            index.dec.get(&key)
        };
        match found {
            Some(&(pass, unique)) => {
                shard.counters.hits.fetch_add(1, Ordering::Relaxed);
                Response::Verdict { pass, unique }
            }
            None => Response::NotFound,
        }
    }

    fn put(&self, key: u64, pass: bool, unique: u64, exe: bool) -> Response {
        let shard = self.shard_of(key);
        let res = if exe {
            shard.store.record_exe(key, pass, unique)
        } else {
            shard.store.record_dec(key, pass, unique)
        };
        if let Err(e) = res {
            return Response::Err(Status::Io, e.to_string());
        }
        // The record is journaled but neither indexed nor acked: a
        // crash here must lose nothing acked (nothing was).
        self.crash_point("put-journaled");
        let mut index = shard.index.write().unwrap_or_else(|p| p.into_inner());
        if exe {
            index.exe.insert(key, (pass, unique));
        } else {
            index.dec.insert(key, (pass, unique));
        }
        drop(index);
        shard.counters.appends.fetch_add(1, Ordering::Relaxed);
        shard.dirty.store(true, Ordering::Release);
        Response::Ok
    }

    fn get_refs(&self, salt: u64) -> Response {
        let shard = self.shard_of(salt);
        shard.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let index = shard.index.read().unwrap_or_else(|p| p.into_inner());
        match index.refs.get(&salt) {
            Some(joined) => {
                shard.counters.hits.fetch_add(1, Ordering::Relaxed);
                Response::Text(joined.clone())
            }
            None => Response::NotFound,
        }
    }

    fn put_refs(&self, salt: u64, refs: &str) -> Response {
        let shard = self.shard_of(salt);
        let outputs: Vec<String> = refs.split(REF_SEP).map(str::to_owned).collect();
        if let Err(e) = shard.store.record_references(salt, &outputs) {
            return Response::Err(Status::Io, e.to_string());
        }
        self.crash_point("put-journaled");
        let mut index = shard.index.write().unwrap_or_else(|p| p.into_inner());
        index.refs.insert(salt, refs.to_string());
        drop(index);
        shard.counters.appends.fetch_add(1, Ordering::Relaxed);
        shard.dirty.store(true, Ordering::Release);
        Response::Ok
    }

    fn compact_all(&self) -> Response {
        let mut lines = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            // The store takes its advisory lock exclusively; a briefly
            // contended shared (append) lock resolves in microseconds,
            // so a couple of retries ride it out.
            let mut last = None;
            for _ in 0..5 {
                match shard.store.compact() {
                    Ok(c) => {
                        last = Some(Ok(c));
                        break;
                    }
                    Err(StoreError::Locked) => {
                        last = Some(Err(StoreError::Locked));
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        last = Some(Err(e));
                        break;
                    }
                }
            }
            match last {
                Some(Ok(c)) => lines.push(format!(
                    "shard {i}: {} records, {} -> {} bytes",
                    c.records, c.bytes_before, c.bytes_after
                )),
                Some(Err(e)) => lines.push(format!("shard {i}: {e}")),
                None => lines.push(format!("shard {i}: not attempted")),
            }
        }
        Response::Text(lines.join("\n"))
    }

    /// Renders the `STATS` text: this connection's counters, then one
    /// line per shard, then server totals. The line shapes here are
    /// documented in `docs/OPERATIONS.md` — change both together.
    fn stats_text(&self, conn: &ConnCounters) -> String {
        let mut out = format!(
            "oraql-served: {} shards in {}, {} acceptors\n",
            self.shards.len(),
            self.dir.display(),
            self.opts.acceptors.max(1)
        );
        out.push_str(&format!(
            "conn: {} requests, {} lookups, {} hits, {} appends, {} B in, {} B out\n",
            conn.requests, conn.lookups, conn.hits, conn.appends, conn.bytes_in, conn.bytes_out
        ));
        for (i, shard) in self.shards.iter().enumerate() {
            let c = &shard.counters;
            let s = shard.store.stats();
            out.push_str(&format!(
                "shard {i}: {} lookups, {} hits, {} appends, {} fsyncs; journal: {} recovered, {} corrupt dropped, {} torn dropped, {} compactions\n",
                c.lookups.load(Ordering::Relaxed),
                c.hits.load(Ordering::Relaxed),
                c.appends.load(Ordering::Relaxed),
                c.fsyncs.load(Ordering::Relaxed),
                s.recovered,
                s.dropped_corrupt,
                s.dropped_torn,
                s.compactions,
            ));
        }
        let g = &self.counters;
        let (mut lookups, mut hits, mut appends) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            lookups += shard.counters.lookups.load(Ordering::Relaxed);
            hits += shard.counters.hits.load(Ordering::Relaxed);
            appends += shard.counters.appends.load(Ordering::Relaxed);
        }
        out.push_str(&format!(
            "total: {} lookups, {} hits, {} appends, {} fsync batches, {} connections ({} active), {} bad frames, {} shed, {} B in, {} B out",
            lookups,
            hits,
            appends,
            g.fsync_batches.load(Ordering::Relaxed),
            g.connections.load(Ordering::Relaxed),
            g.active.load(Ordering::Relaxed),
            g.bad_frames.load(Ordering::Relaxed),
            g.shed.load(Ordering::Relaxed),
            g.bytes_in.load(Ordering::Relaxed),
            g.bytes_out.load(Ordering::Relaxed),
        ));
        out
    }

    fn dispatch(&self, req: Request, conn: &mut ConnCounters) -> Response {
        conn.requests += 1;
        let started = std::time::Instant::now();
        let op = req.op();
        let resp = self.dispatch_inner(req, conn);
        let (count, micros) = op_metrics(op);
        count.inc();
        micros.observe(started.elapsed().as_micros() as u64);
        resp
    }

    fn dispatch_inner(&self, req: Request, conn: &mut ConnCounters) -> Response {
        match req {
            Request::Ping => Response::Ok,
            Request::GetDec { key } => {
                conn.lookups += 1;
                let r = self.get(key, false);
                if matches!(r, Response::Verdict { .. }) {
                    conn.hits += 1;
                }
                r
            }
            Request::GetExe { key } => {
                conn.lookups += 1;
                let r = self.get(key, true);
                if matches!(r, Response::Verdict { .. }) {
                    conn.hits += 1;
                }
                r
            }
            Request::PutDec { key, pass, unique } => {
                conn.appends += 1;
                self.put(key, pass, unique, false)
            }
            Request::PutExe { key, pass, unique } => {
                conn.appends += 1;
                self.put(key, pass, unique, true)
            }
            Request::GetRefs { salt } => {
                conn.lookups += 1;
                let r = self.get_refs(salt);
                if matches!(r, Response::Text(_)) {
                    conn.hits += 1;
                }
                r
            }
            Request::PutRefs { salt, refs } => {
                conn.appends += 1;
                self.put_refs(salt, &refs)
            }
            Request::Stats => Response::Text(self.stats_text(conn)),
            Request::Sync => match self.sync_dirty() {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(Status::Io, e.to_string()),
            },
            Request::Compact => self.compact_all(),
            // The process-wide registry: this daemon's own request
            // counters and latency histograms, plus everything the
            // embedded `oraql-store` shards published. A scraper polls
            // this op; see docs/OPERATIONS.md § Monitoring.
            Request::Metrics => Response::Text(oraql_obs::global().snapshot().render()),
        }
    }
}

/// Registry handles for one wire op: request counter + latency
/// histogram. Names are static per op, resolved once each.
fn op_metrics(op: Op) -> (&'static oraql_obs::Counter, &'static oraql_obs::Histogram) {
    use std::sync::OnceLock;
    // One slot per op byte value; op bytes start at 0x01.
    static SLOTS: OnceLock<Vec<(&'static oraql_obs::Counter, &'static oraql_obs::Histogram)>> =
        OnceLock::new();
    const NAMES: [(&str, &str); 11] = [
        (
            "oraql_served_requests_ping_total",
            "oraql_served_op_ping_micros",
        ),
        (
            "oraql_served_requests_get_dec_total",
            "oraql_served_op_get_dec_micros",
        ),
        (
            "oraql_served_requests_get_exe_total",
            "oraql_served_op_get_exe_micros",
        ),
        (
            "oraql_served_requests_put_dec_total",
            "oraql_served_op_put_dec_micros",
        ),
        (
            "oraql_served_requests_put_exe_total",
            "oraql_served_op_put_exe_micros",
        ),
        (
            "oraql_served_requests_get_refs_total",
            "oraql_served_op_get_refs_micros",
        ),
        (
            "oraql_served_requests_put_refs_total",
            "oraql_served_op_put_refs_micros",
        ),
        (
            "oraql_served_requests_stats_total",
            "oraql_served_op_stats_micros",
        ),
        (
            "oraql_served_requests_sync_total",
            "oraql_served_op_sync_micros",
        ),
        (
            "oraql_served_requests_compact_total",
            "oraql_served_op_compact_micros",
        ),
        (
            "oraql_served_requests_metrics_total",
            "oraql_served_op_metrics_micros",
        ),
    ];
    let slots = SLOTS.get_or_init(|| {
        let r = oraql_obs::global();
        NAMES
            .iter()
            .map(|&(c, h)| (r.counter(c), r.histogram(h)))
            .collect()
    });
    slots[(op as u8 - 1) as usize]
}

/// Per-connection counters, reported by `STATS` on the same connection.
#[derive(Debug, Default)]
struct ConnCounters {
    requests: u64,
    lookups: u64,
    hits: u64,
    appends: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// The request id to echo for a raw request payload, whether or not it
/// decodes (a shed or malformed request still gets its id back).
fn req_id_of(payload: &[u8]) -> u64 {
    match Request::decode(payload) {
        Ok((id, _)) => id,
        Err((_, id)) => id,
    }
}

/// Answers the first request on an over-cap connection with `BUSY` and
/// returns (the caller closes). Waiting bounded by `idle_poll` ticks so
/// shutdown is never blocked on a silent peer.
fn shed_conn(core: &Core, conn: &mut Conn) {
    let _ = conn.set_read_timeout(Some(core.opts.idle_poll));
    let deadline = Instant::now() + Duration::from_secs(1);
    while Instant::now() < deadline && !core.is_dead() {
        match read_frame(conn) {
            Ok(Some(payload)) => {
                core.note_shed();
                let frame = Response::Busy.encode(req_id_of(&payload));
                let _ = write_frame(conn, &frame);
                return;
            }
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Mutates an about-to-be-written response frame (or suppresses it)
/// according to the wire fault plan. Returns `false` when the
/// connection must be dropped instead of (fully) answering.
fn inject_wire_faults(core: &Core, conn: &mut Conn, frame: &mut [u8]) -> bool {
    let Some(f) = &core.opts.faults else {
        return true;
    };
    if f.fire(FaultSite::ConnReset) {
        return false; // drop without answering: client sees EOF/RST
    }
    if f.fire(FaultSite::ResponseHang) {
        // Sit on the response past the client's read deadline; the
        // client must reclaim the request, not us.
        std::thread::sleep(core.opts.fault_hang);
    } else if f.fire(FaultSite::ResponseDelay) {
        std::thread::sleep(Duration::from_millis(2));
    }
    if f.fire(FaultSite::FrameTorn) {
        // Write a strict prefix, then drop the connection.
        let cut = (frame.len() / 2).max(1);
        let _ = conn.write_all(&frame[..cut]);
        let _ = conn.flush();
        return false;
    }
    if f.fire(FaultSite::FrameGarble) {
        // Flip one payload byte after the checksum was computed; the
        // client's frame checksum must catch it wherever it lands.
        let i = 12 + (f.fired(FaultSite::FrameGarble) as usize) % (frame.len() - 12).max(1);
        let i = i.min(frame.len() - 1);
        frame[i] ^= 0x40;
    }
    true
}

fn serve_conn(core: &Core, mut conn: Conn) {
    core.counters.connections.fetch_add(1, Ordering::Relaxed);
    let active = core.counters.active.fetch_add(1, Ordering::Relaxed) + 1;
    if core.opts.max_conns > 0 && active > core.opts.max_conns as u64 {
        shed_conn(core, &mut conn);
        let _ = conn.flush();
        core.counters.active.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    let _ = conn.set_read_timeout(Some(core.opts.idle_poll));
    let _ = conn.set_write_timeout(Some(core.opts.write_timeout));
    let mut counters = ConnCounters::default();
    loop {
        if core.is_dead() {
            break;
        }
        let payload = match read_frame(&mut conn) {
            Ok(Some(p)) => p,
            Ok(None) => break, // peer hung up cleanly
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // idle poll tick: re-check shutdown
            }
            Err(_) => {
                // Torn frame or dead socket: nothing sane to answer on.
                core.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
        };
        let frame_in = (12 + payload.len()) as u64;
        counters.bytes_in += frame_in;
        core.counters
            .bytes_in
            .fetch_add(frame_in, Ordering::Relaxed);
        core.counters.requests.fetch_add(1, Ordering::Relaxed);
        // The admission slot is held until the response leaves (or the
        // connection breaks): an in-flight request includes its write,
        // so a stalled peer counts against `max_inflight`.
        struct Slot<'a>(Option<&'a Core>);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                if let Some(core) = self.0 {
                    core.inflight.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
        let mut slot = Slot(None);
        let (req_id, resp) = match Request::decode(&payload) {
            Ok((req_id, req)) => {
                if core.admit(req.op()) {
                    slot.0 = Some(core);
                    (req_id, core.dispatch(req, &mut counters))
                } else {
                    (req_id, Response::Busy)
                }
            }
            Err((Status::BadVersion, req_id)) => {
                core.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                // Body carries the server's version byte (see PROTOCOL.md).
                (
                    req_id,
                    Response::Err(
                        Status::BadVersion,
                        (crate::protocol::VERSION as char).to_string(),
                    ),
                )
            }
            Err((status, req_id)) => {
                core.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                (req_id, Response::Err(status, String::new()))
            }
        };
        if core.crashed.load(Ordering::Acquire) {
            break; // a dead daemon acks nothing
        }
        let mut frame = resp.encode(req_id);
        if !inject_wire_faults(core, &mut conn, &mut frame) {
            break;
        }
        counters.bytes_out += frame.len() as u64;
        core.counters
            .bytes_out
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        if write_frame(&mut conn, &frame).is_err() {
            break; // peer vanished mid-response
        }
        // The response is acked on the wire: a crash beyond this point
        // must keep every record the frame acknowledged.
        core.crash_point("post-ack");
    }
    let _ = conn.flush();
    core.counters.active.fetch_sub(1, Ordering::Relaxed);
}

/// A running verdict server. Owns the shards, the acceptor pool, and
/// the group-fsync thread; [`Server::shutdown`] (or `Drop`) tears all
/// of it down and leaves every acked write durable.
pub struct Server {
    core: Arc<Core>,
    addr: Addr,
    /// Acceptors + the fsync thread + every live connection thread.
    /// Connection threads push here as they spawn, so shutdown pops
    /// until empty rather than iterating a snapshot.
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    down: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("shards", &self.core.shards.len())
            .finish()
    }
}

impl Server {
    /// Opens (or creates) the shard journals under `config.dir`,
    /// replays them into the in-memory index, binds `addr` (use port 0
    /// for an ephemeral TCP port), and spawns the acceptor pool and
    /// fsync thread. On return the server is accepting connections.
    pub fn start(config: &ServerOptions, addr: &str) -> io::Result<Server> {
        std::fs::create_dir_all(&config.dir)?;
        let shards = config.shards.max(1);
        let mut opened = Vec::with_capacity(shards);
        for i in 0..shards {
            let path = config.dir.join(format!("shard-{i:02}.journal"));
            opened.push(Shard::open(path).map_err(io::Error::other)?);
        }
        let listener = Listener::bind(&Addr::parse(addr))?;
        let bound = listener.local_addr()?;
        let core = Arc::new(Core {
            shards: opened,
            counters: ServerCounters::default(),
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            dir: config.dir.clone(),
            opts: config.clone(),
        });
        let handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..core.opts.acceptors.max(1) {
            let l = listener.try_clone()?;
            let c = Arc::clone(&core);
            let hs = Arc::clone(&handles);
            let h = std::thread::Builder::new()
                .name(format!("oraql-served-accept-{i}"))
                .spawn(move || accept_loop(&l, &c, &hs))?;
            lock_ignore_poison(&handles).push(h);
        }
        {
            let c = Arc::clone(&core);
            let interval = config.fsync_interval;
            let h = std::thread::Builder::new()
                .name("oraql-served-fsync".to_string())
                .spawn(move || {
                    // Sleep the interval in short ticks so shutdown is
                    // never blocked behind a long fsync cadence.
                    let tick = interval.min(Duration::from_millis(50));
                    let mut slept = Duration::ZERO;
                    while !c.shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(tick);
                        slept += tick;
                        if slept >= interval {
                            slept = Duration::ZERO;
                            let _ = c.sync_dirty();
                        }
                    }
                })?;
            lock_ignore_poison(&handles).push(h);
        }
        drop(listener);
        Ok(Server {
            core,
            addr: bound,
            handles,
            down: false,
        })
    }

    /// The address the server actually bound, in the grammar
    /// [`Addr::parse`] accepts — hand it straight to a client.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Total records currently indexed across all shards (dec + exe +
    /// refs). Takes each shard's read lock briefly.
    pub fn indexed_records(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| {
                let i = s.index.read().unwrap_or_else(|p| p.into_inner());
                i.dec.len() + i.exe.len() + i.refs.len()
            })
            .sum()
    }

    /// Has a simulated crash-point fired? (Always `false` under
    /// [`CrashMode::Abort`] — an aborted daemon answers nothing.)
    pub fn is_crashed(&self) -> bool {
        self.core.crashed.load(Ordering::Acquire)
    }

    /// Requests shed by admission control or the connection cap.
    pub fn shed_count(&self) -> u64 {
        self.core.counters.shed.load(Ordering::Relaxed)
    }

    /// `(site, occurrences, fired)` rows from the server's fault
    /// injector; empty without a fault plan.
    pub fn fault_summary(&self) -> Vec<(FaultSite, u64, u64)> {
        self.core
            .opts
            .faults
            .as_ref()
            .map(|f| f.summary())
            .unwrap_or_default()
    }

    /// Stops accepting, drains every connection thread, and runs a
    /// final group fsync. Idempotent; also invoked by `Drop`.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> io::Result<()> {
        if self.down {
            return Ok(());
        }
        self.down = true;
        self.core.shutdown.store(true, Ordering::Release);
        // Wake every acceptor blocked in accept(2): one throwaway
        // connection per acceptor thread.
        for _ in 0..self.core.opts.acceptors.max(1) {
            let _ = Conn::connect(&self.addr, Duration::from_millis(200));
        }
        loop {
            let h = lock_ignore_poison(&self.handles).pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        if let Addr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
        // A simulated crash skips the final sync — sync_dirty() is a
        // no-op once `crashed` is set, which is the point: the journal
        // holds exactly what the kill left.
        self.core.sync_dirty()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

fn accept_loop(listener: &Listener, core: &Arc<Core>, handles: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        if core.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok(conn) => {
                if core.shutdown.load(Ordering::Acquire) {
                    return; // this was the shutdown wake-up poke
                }
                let c = Arc::clone(core);
                let spawned = std::thread::Builder::new()
                    .name("oraql-served-conn".to_string())
                    .spawn(move || serve_conn(&c, conn));
                match spawned {
                    Ok(h) => lock_ignore_poison(handles).push(h),
                    Err(_) => {
                        // Thread exhaustion: drop the connection; the
                        // client's retry/fallback path handles it.
                    }
                }
            }
            Err(_) => {
                if core.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept failure (EMFILE, ECONNABORTED):
                // back off briefly instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oraql_served_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn put_get_roundtrip_and_restart_replay() {
        let dir = scratch("roundtrip");
        let cfg = ServerOptions::new(&dir);
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        let client = Client::new(&server.addr());
        client.ping().unwrap();
        assert_eq!(client.get_dec(7).unwrap(), None);
        client.put_dec(7, true, 42).unwrap();
        assert_eq!(client.get_dec(7).unwrap(), Some((true, 42)));
        client.put_exe(9, false, 0).unwrap();
        assert_eq!(client.get_exe(9).unwrap(), Some((false, 0)));
        client
            .put_refs(3, &["a\n".to_string(), "b\n".to_string()])
            .unwrap();
        assert_eq!(
            client.get_refs(3).unwrap(),
            Some(vec!["a\n".to_string(), "b\n".to_string()])
        );
        client.sync().unwrap();
        server.shutdown().unwrap();
        // A fresh server over the same dir replays the journals.
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        assert_eq!(server.indexed_records(), 3);
        let client = Client::new(&server.addr());
        assert_eq!(client.get_dec(7).unwrap(), Some((true, 42)));
        assert_eq!(client.get_exe(9).unwrap(), Some((false, 0)));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_compact_and_sharding() {
        let dir = scratch("stats");
        let mut cfg = ServerOptions::new(&dir);
        cfg.shards = 3;
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        let client = Client::new(&server.addr());
        for k in 0..30u64 {
            client.put_dec(k, true, k).unwrap();
        }
        for k in 0..30u64 {
            assert_eq!(client.get_dec(k).unwrap(), Some((true, k)));
        }
        let stats = client.server_stats().unwrap();
        assert!(stats.contains("3 shards"), "{stats}");
        assert!(
            stats.contains("total: 30 lookups, 30 hits, 30 appends"),
            "{stats}"
        );
        // Every shard saw an even share (keys 0..30 mod 3).
        for i in 0..3 {
            assert!(stats.contains(&format!("shard {i}: 10 lookups")), "{stats}");
        }
        let summary = client.server_compact().unwrap();
        assert!(summary.contains("shard 0:"), "{summary}");
        assert!(summary.contains("records"), "{summary}");
        // Compaction preserved the live set.
        for k in 0..30u64 {
            assert_eq!(client.get_dec(k).unwrap(), Some((true, k)));
        }
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_transport() {
        let dir = scratch("unix");
        let sock = dir.join("served.sock");
        let cfg = ServerOptions::new(dir.join("data"));
        let server = Server::start(&cfg, &format!("unix:{}", sock.display())).unwrap();
        let client = Client::new(&server.addr());
        client.put_dec(1, true, 1).unwrap();
        assert_eq!(client.get_dec(1).unwrap(), Some((true, 1)));
        server.shutdown().unwrap();
        assert!(!sock.exists(), "socket file removed on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_frames_get_error_statuses() {
        use crate::protocol::{frame_sum, read_frame, write_frame, VERSION};
        fn raw_frame(payload: &[u8]) -> Vec<u8> {
            let mut f = Vec::new();
            f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            f.extend_from_slice(&frame_sum(payload).to_le_bytes());
            f.extend_from_slice(payload);
            f
        }
        fn raw_payload(version: u8, op: u8, req_id: u64, body: &[u8]) -> Vec<u8> {
            let mut p = vec![version, op];
            p.extend_from_slice(&req_id.to_le_bytes());
            p.extend_from_slice(body);
            p
        }
        let dir = scratch("malformed");
        let server = Server::start(&ServerOptions::new(&dir), "127.0.0.1:0").unwrap();
        let mut conn = Conn::connect(&Addr::parse(&server.addr()), Duration::from_secs(2)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Unknown op: the request id still comes back.
        write_frame(&mut conn, &raw_frame(&raw_payload(VERSION, 0xee, 31, &[]))).unwrap();
        let p = read_frame(&mut conn).unwrap().unwrap();
        assert_eq!(p[1], Status::BadOp as u8);
        assert_eq!(u64::from_le_bytes(p[2..10].try_into().unwrap()), 31);
        // Wrong version: body carries the server's version byte.
        write_frame(&mut conn, &raw_frame(&raw_payload(9, 0x01, 32, &[]))).unwrap();
        let p = read_frame(&mut conn).unwrap().unwrap();
        assert_eq!(p[1], Status::BadVersion as u8);
        assert_eq!(u64::from_le_bytes(p[2..10].try_into().unwrap()), 32);
        // Truncated body.
        write_frame(&mut conn, &raw_frame(&raw_payload(VERSION, 0x02, 33, &[1]))).unwrap();
        let p = read_frame(&mut conn).unwrap().unwrap();
        assert_eq!(p[1], Status::BadFrame as u8);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_sheds_busy_under_saturation() {
        use oraql_faults::{FaultPlan, Rate};
        let dir = scratch("admission");
        let mut cfg = ServerOptions::new(&dir);
        // One execution slot, a tiny admission deadline, and a fault
        // plan that hangs every response long enough to hold the slot.
        cfg.max_inflight = 1;
        cfg.request_deadline = Duration::from_millis(30);
        cfg.fault_hang = Duration::from_millis(600);
        cfg.faults = Some(Arc::new(FaultInjector::new(
            FaultPlan::quiet(1).with_rate(FaultSite::ResponseHang, Rate::new(1, 2)),
        )));
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let mut saw_busy = false;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let addr = addr.clone();
                handles.push(s.spawn(move || {
                    let client = Client::with_timeouts(
                        &addr,
                        Duration::from_secs(2),
                        Duration::from_millis(10),
                    );
                    let mut busy = 0u32;
                    for k in 0..6u64 {
                        if let Err(crate::client::ClientError::Busy) = client.get_dec(k) {
                            busy += 1;
                        }
                    }
                    busy
                }));
            }
            for h in handles {
                if h.join().unwrap() > 0 {
                    saw_busy = true;
                }
            }
        });
        assert!(saw_busy, "saturated single-slot server never shed");
        assert!(server.shed_count() > 0);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connection_cap_sheds_excess_connections() {
        let dir = scratch("conncap");
        let mut cfg = ServerOptions::new(&dir);
        cfg.max_conns = 1;
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        // First connection occupies the only slot...
        let c1 = Client::new(&server.addr());
        c1.ping().unwrap();
        // ...so a second connection's first request is answered BUSY.
        let c2 = Client::new(&server.addr());
        assert!(matches!(c2.ping(), Err(crate::client::ClientError::Busy)));
        assert!(server.shed_count() >= 1);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulated_crash_drops_conns_and_skips_final_sync() {
        use oraql_faults::{FaultPlan, Rate};
        let dir = scratch("simcrash");
        let mut cfg = ServerOptions::new(&dir);
        // Crash deterministically on the first crash-point passage.
        cfg.crash_mode = CrashMode::Simulate;
        cfg.fsync_interval = Duration::from_secs(3600); // keep the timer out of it
        cfg.faults = Some(Arc::new(FaultInjector::new(
            FaultPlan::quiet(7).with_rate(FaultSite::CrashPoint, Rate::always()),
        )));
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        let client = Client::with_timeouts(
            &server.addr(),
            Duration::from_millis(500),
            Duration::from_millis(50),
        );
        // The put journals, then hits `put-journaled`, which "kills"
        // the daemon: no ack ever arrives.
        assert!(client.put_dec(1, true, 1).is_err());
        assert!(server.is_crashed());
        server.shutdown().unwrap();
        // Restart over the same dir: the journaled-but-unacked record
        // is allowed to be present (it was written before the crash
        // point) — what matters is the journal replays cleanly.
        let server = Server::start(&ServerOptions::new(&dir), "127.0.0.1:0").unwrap();
        let client = Client::new(&server.addr());
        client.ping().unwrap();
        client.put_dec(2, false, 9).unwrap();
        assert_eq!(client.get_dec(2).unwrap(), Some((false, 9)));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
