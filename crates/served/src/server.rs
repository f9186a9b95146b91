//! The verdict server: one journal, group fsync, admission control,
//! and a thread per connection.
//!
//! # Architecture
//!
//! The daemon owns one [`oraql_store::Store`] at
//! `<dir>/verdicts.journal` — an ordinary store journal, so
//! `oraql --store` can open the same file — and answers every op
//! straight from it. The store keeps its live records in memory
//! (replayed from the journal at startup), so **lookups never touch
//! disk**: a `GET` takes the store's lock for one hash probe.
//!
//! Writes go journal-first (a `write(2)` append under the store's
//! shared advisory lock, then the in-memory map), then ack — so a
//! client that got its `PUT` acked sees the record in its own later
//! `GET`s, and a crash at *any* point loses at most unacked work (the
//! crash-point torture in `crates/served/tests/crash_torture.rs` pins
//! this). Durability is batched: a background thread group-fsyncs the
//! journal each `fsync_interval` when anything was appended (and at
//! shutdown), bounding the power-loss window to one interval without
//! paying an fsync per append. [`Store::sync`] flushes a cloned
//! descriptor outside the store's lock, so a group fsync never stalls
//! a lookup. The `SYNC` op forces a pass for clients that need a hard
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
//! Every shed is counted in the `shed` field of the `STATS` text; see
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
//! * One acceptor thread; each accepted connection gets its own
//!   serving thread (thread-per-connection: named threads, an atomic
//!   shutdown flag, handles joined on drop, poison-immune locks).
//! * The store's one mutex is the only lock on the data path, held for
//!   a hash probe, one append or a compaction, never across a socket
//!   call — two ops cannot deadlock.
//! * [`Server::shutdown`] (also run by `Drop`) stops accepting, wakes
//!   the blocked acceptor, joins every connection thread, and runs a
//!   final group fsync — after it returns, all acked writes are on
//!   disk (unless a simulated crash is in effect, which is the point).

use crate::net::{Addr, Conn, Listener};
use crate::protocol::{read_frame, write_frame, Op, Request, Response, Status};
use oraql_faults::{FaultInjector, FaultSite};
use oraql_store::{Store, StoreError};
use std::io::{self, Read, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon's journal, under [`ServerOptions::dir`].
pub const JOURNAL: &str = "verdicts.journal";

/// How long one response write may block on a stalled peer before the
/// connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a connection thread blocks in `read` before re-checking the
/// shutdown flag. Bounds shutdown latency, not request latency.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Whether a read error is the [`IDLE_POLL`] timeout expiring.
fn is_poll_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The read side of one [`read_frame`] on a serving connection. An
/// [`IDLE_POLL`] tick before the frame's first byte surfaces as an
/// error, so the caller can re-check shutdown and read again with
/// nothing lost. Once the frame has started, a tick keeps its bytes
/// and waits on, re-checking shutdown each time, until the peer has
/// sent nothing for [`WRITE_TIMEOUT`].
struct FrameRead<'a> {
    conn: &'a mut Conn,
    core: &'a Core,
    /// Whether the frame has delivered a byte.
    started: bool,
}

impl Read for FrameRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut stalled: Option<Instant> = None;
        loop {
            match self.conn.read(buf) {
                Ok(n) => {
                    self.started |= n > 0;
                    return Ok(n);
                }
                Err(e) if self.started && is_poll_tick(&e) => {
                    let since = *stalled.get_or_insert_with(Instant::now);
                    if self.core.is_dead() || since.elapsed() >= WRITE_TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "peer stalled mid-frame",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Reads one request frame from `conn` through a [`FrameRead`]: an
/// error that [`is_poll_tick`] means no byte of it has arrived yet.
fn read_request(conn: &mut Conn, core: &Core) -> io::Result<Option<Vec<u8>>> {
    read_frame(&mut FrameRead {
        conn,
        core,
        started: false,
    })
}

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

/// Where a [`Server`] keeps its journal, and how it is sized and
/// hardened. Plain data; build one, hand it to [`Server::start`].
/// Every duration and bound here is a daemon CLI flag — see
/// `oraql-served serve --help` and `docs/OPERATIONS.md`.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Directory holding [`JOURNAL`] (created if missing).
    pub dir: PathBuf,
    /// Group-fsync cadence: the upper bound on how long an acked write
    /// may sit only in the page cache. Default 5 ms.
    pub fsync_interval: Duration,
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
    /// A config with the defaults: 5 ms fsync, unbounded admission, no
    /// faults.
    pub fn new(dir: impl Into<PathBuf>) -> ServerOptions {
        ServerOptions {
            dir: dir.into(),
            fsync_interval: Duration::from_millis(5),
            max_inflight: 0,
            max_conns: 0,
            request_deadline: Duration::from_millis(100),
            fault_hang: Duration::from_secs(3),
            faults: None,
            crash_mode: CrashMode::default(),
        }
    }
}

/// Server-wide counters (all monotone except `active`, all relaxed —
/// they feed summary text, not synchronization).
#[derive(Debug, Default)]
struct ServerCounters {
    connections: AtomicU64,
    active: AtomicU64,
    bad_frames: AtomicU64,
    shed: AtomicU64,
    fsyncs: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// State shared by the acceptor, every connection, and the fsync
/// thread.
struct Core {
    store: Store,
    /// Set by every acked append, cleared by the fsync pass that
    /// persisted it.
    dirty: AtomicBool,
    counters: ServerCounters,
    shutdown: AtomicBool,
    /// Set by a simulated crash-point: the daemon behaves as killed
    /// (see [`CrashMode::Simulate`]).
    crashed: AtomicBool,
    /// Requests currently executing (admitted, not yet answered).
    inflight: AtomicU64,
    opts: ServerOptions,
}

impl Core {
    fn note_shed(&self) {
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
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
            Op::Stats | Op::Sync | Op::Compact => self.opts.request_deadline * 10,
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

    /// One group-fsync pass: persist the journal if anything was
    /// appended since the last pass. A failed fsync (for real or via
    /// the `fsync-fail` site) re-marks the journal dirty so the next
    /// pass retries instead of silently dropping durability.
    fn sync_dirty(&self) -> io::Result<()> {
        if self.crashed.load(Ordering::Acquire) {
            return Ok(()); // a dead daemon syncs nothing
        }
        self.crash_point("fsync-pass");
        if !self.dirty.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        let injected = self
            .opts
            .faults
            .as_ref()
            .is_some_and(|f| f.fire(FaultSite::FsyncFail));
        let res = if injected {
            Err(io::Error::other("injected fsync failure"))
        } else {
            self.store.sync()
        };
        match &res {
            Ok(()) => {
                self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => self.dirty.store(true, Ordering::Release),
        }
        res
    }

    /// Answers a write once the store has journaled it: the record is
    /// journaled but not acked, so a crash here must lose nothing acked
    /// (nothing was).
    fn journaled(&self, res: io::Result<()>) -> Response {
        if let Err(e) = res {
            return Response::Err(Status::Io, e.to_string());
        }
        self.crash_point("put-journaled");
        self.dirty.store(true, Ordering::Release);
        Response::Ok
    }

    fn compact(&self) -> Response {
        // The store takes its advisory lock exclusively; a briefly
        // contended shared (append) lock resolves in microseconds, so a
        // couple of retries ride it out.
        let mut res = self.store.compact();
        for _ in 0..4 {
            if !matches!(res, Err(StoreError::Locked)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            res = self.store.compact();
        }
        match res {
            Ok(c) => Response::Text(format!(
                "{} records, {} -> {} bytes",
                c.records, c.bytes_before, c.bytes_after
            )),
            Err(e) => Response::Err(Status::Io, e.to_string()),
        }
    }

    /// Renders the `STATS` text: the journal, the store's own counter
    /// line (the one `oraql --store` prints), then the server's. The
    /// line shapes here are documented in `docs/OPERATIONS.md` — change
    /// both together.
    fn stats_text(&self) -> String {
        let s = self.store.stats();
        let g = &self.counters;
        format!(
            "oraql-served: {}, {} records\nstore: {s}\nserver: {} fsyncs, {} compactions, {} connections ({} active), {} bad frames, {} shed, {} B in, {} B out",
            self.store.path().display(),
            self.store.len(),
            g.fsyncs.load(Ordering::Relaxed),
            s.compactions,
            g.connections.load(Ordering::Relaxed),
            g.active.load(Ordering::Relaxed),
            g.bad_frames.load(Ordering::Relaxed),
            g.shed.load(Ordering::Relaxed),
            g.bytes_in.load(Ordering::Relaxed),
            g.bytes_out.load(Ordering::Relaxed),
        )
    }

    fn dispatch(&self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Ok,
            Request::Get { space, key } => self
                .store
                .verdict(space, key)
                .map_or(Response::NotFound, Response::Verdict),
            Request::Put {
                space,
                key,
                verdict,
            } => self.journaled(self.store.record(space, key, verdict)),
            Request::Stats => Response::Text(self.stats_text()),
            Request::Sync => match self.sync_dirty() {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(Status::Io, e.to_string()),
            },
            Request::Compact => self.compact(),
        }
    }
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
/// returns (the caller closes). Waiting bounded by [`IDLE_POLL`] ticks so
/// shutdown is never blocked on a silent peer.
fn shed_conn(core: &Core, conn: &mut Conn) {
    let _ = conn.set_read_timeout(Some(IDLE_POLL));
    let deadline = Instant::now() + Duration::from_secs(1);
    while Instant::now() < deadline && !core.is_dead() {
        match read_request(conn, core) {
            Ok(Some(payload)) => {
                core.note_shed();
                let frame = Response::Busy.encode(req_id_of(&payload));
                let _ = write_frame(conn, &frame);
                return;
            }
            Ok(None) => return,
            Err(e) if is_poll_tick(&e) => continue,
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
    let _ = conn.set_read_timeout(Some(IDLE_POLL));
    let _ = conn.set_write_timeout(Some(WRITE_TIMEOUT));
    loop {
        if core.is_dead() {
            break;
        }
        let payload = match read_request(&mut conn, core) {
            Ok(Some(p)) => p,
            Ok(None) => break,                      // peer hung up cleanly
            Err(e) if is_poll_tick(&e) => continue, // idle: re-check shutdown
            Err(_) => {
                // Torn frame, stalled peer or dead socket: nothing sane
                // to answer on.
                core.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
        };
        core.counters
            .bytes_in
            .fetch_add((12 + payload.len()) as u64, Ordering::Relaxed);
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
                    (req_id, core.dispatch(req))
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

/// A running verdict server. Owns the journal, the acceptor, and the
/// group-fsync thread; [`Server::shutdown`] (or `Drop`) tears all of it
/// down and leaves every acked write durable.
pub struct Server {
    core: Arc<Core>,
    addr: Addr,
    /// The acceptor + the fsync thread + every live connection thread.
    /// Connection threads push here as they spawn, so shutdown pops
    /// until empty rather than iterating a snapshot.
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    down: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("journal", &self.core.store.path())
            .finish()
    }
}

impl Server {
    /// Opens (or creates) `config.dir/verdicts.journal`, binds `addr`
    /// (use port 0 for an ephemeral TCP port), and spawns the acceptor
    /// and fsync thread. On return the server is accepting connections.
    pub fn start(config: &ServerOptions, addr: &str) -> io::Result<Server> {
        std::fs::create_dir_all(&config.dir)?;
        let store = Store::open(config.dir.join(JOURNAL)).map_err(io::Error::other)?;
        let listener = Listener::bind(&Addr::parse(addr))?;
        let bound = listener.local_addr()?;
        let core = Arc::new(Core {
            store,
            dirty: AtomicBool::new(false),
            counters: ServerCounters::default(),
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            opts: config.clone(),
        });
        let handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let c = Arc::clone(&core);
            let hs = Arc::clone(&handles);
            let h = std::thread::Builder::new()
                .name("oraql-served-accept".to_string())
                .spawn(move || accept_loop(&listener, &c, &hs))?;
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

    /// Live verdicts in the journal (both key spaces).
    pub fn indexed_records(&self) -> usize {
        self.core.store.len()
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
        // Wake the acceptor blocked in accept(2) with one throwaway
        // connection.
        let _ = Conn::connect(&self.addr, Duration::from_millis(200));
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
    use oraql_store::Space;

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
        assert_eq!(client.get(Space::Dec, 7).unwrap(), None);
        client.put(Space::Dec, 7, (true, 42)).unwrap();
        assert_eq!(client.get(Space::Dec, 7).unwrap(), Some((true, 42)));
        client.put(Space::Exe, 9, (false, 0)).unwrap();
        assert_eq!(client.get(Space::Exe, 9).unwrap(), Some((false, 0)));
        // One key, two spaces: two separate verdicts.
        client.put(Space::Exe, 7, (false, 3)).unwrap();
        assert_eq!(client.get(Space::Exe, 7).unwrap(), Some((false, 3)));
        assert_eq!(client.get(Space::Dec, 7).unwrap(), Some((true, 42)));
        client.sync().unwrap();
        server.shutdown().unwrap();
        // The directory is one ordinary store journal (plus its lock
        // file) that a plain `Store::open` reads back.
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["verdicts.journal", "verdicts.journal.lock"]);
        let store = Store::open(dir.join(JOURNAL)).unwrap();
        assert_eq!(store.verdict(Space::Dec, 7), Some((true, 42)));
        assert_eq!(store.verdict(Space::Exe, 9), Some((false, 0)));
        assert_eq!(store.verdict(Space::Exe, 7), Some((false, 3)));
        drop(store);
        // A fresh server over the same dir replays the journal.
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        assert_eq!(server.indexed_records(), 3);
        let client = Client::new(&server.addr());
        assert_eq!(client.get(Space::Dec, 7).unwrap(), Some((true, 42)));
        assert_eq!(client.get(Space::Exe, 9).unwrap(), Some((false, 0)));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_compact() {
        let dir = scratch("stats");
        let mut cfg = ServerOptions::new(&dir);
        cfg.fsync_interval = Duration::from_secs(3600); // only the explicit sync
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        let client = Client::new(&server.addr());
        for round in 0..2u64 {
            for k in 0..30u64 {
                client.put(Space::Dec, k, (true, k + round)).unwrap();
            }
        }
        for k in 0..30u64 {
            assert_eq!(client.get(Space::Dec, k).unwrap(), Some((true, k + 1)));
        }
        assert_eq!(client.get(Space::Exe, 99).unwrap(), None);
        client.sync().unwrap();
        let stats = client.server_stats().unwrap();
        let lines: Vec<&str> = stats.lines().collect();
        assert_eq!(lines.len(), 3, "{stats}");
        assert_eq!(
            lines[0],
            format!("oraql-served: {}, 30 records", dir.join(JOURNAL).display())
        );
        assert_eq!(
            lines[1],
            "store: 30 hits (0 exe / 30 dec), 1 misses, 60 appends; journal: 0 recovered, 0 corrupt dropped, 0 torn dropped"
        );
        assert!(
            lines[2].starts_with(
                "server: 1 fsyncs, 0 compactions, 1 connections (1 active), 0 bad frames, 0 shed, "
            ),
            "{stats}"
        );
        let summary = client.server_compact().unwrap();
        let bytes = std::fs::metadata(dir.join(JOURNAL)).unwrap().len();
        assert!(summary.starts_with("30 records, "), "{summary}");
        assert!(
            summary.ends_with(&format!(" -> {bytes} bytes")),
            "{summary}"
        );
        assert!(
            client.server_stats().unwrap().contains(", 1 compactions, "),
            "compaction counted"
        );
        // Compaction preserved the live set.
        for k in 0..30u64 {
            assert_eq!(client.get(Space::Dec, k).unwrap(), Some((true, k + 1)));
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
        client.put(Space::Dec, 1, (true, 1)).unwrap();
        assert_eq!(client.get(Space::Dec, 1).unwrap(), Some((true, 1)));
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
        // The retired reference-output ops and the retired metrics
        // scrape are unknown ops.
        for (op, id) in [(0x06, 34), (0x07, 35), (0x0b, 36)] {
            let payload = raw_payload(VERSION, op, id, &3u64.to_le_bytes());
            write_frame(&mut conn, &raw_frame(&payload)).unwrap();
            let p = read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(p[1], Status::BadOp as u8);
            assert_eq!(u64::from_le_bytes(p[2..10].try_into().unwrap()), id);
        }
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

    /// A request that arrives in two parts, 2.5 idle polls apart, is
    /// answered wherever the split falls: inside the 12-byte header or
    /// inside the payload.
    #[test]
    fn frame_split_across_idle_polls_is_answered() {
        let dir = scratch("split");
        let server = Server::start(&ServerOptions::new(&dir), "127.0.0.1:0").unwrap();
        let frame = Request::Ping.encode(7);
        for cut in [5, 16] {
            let mut conn =
                Conn::connect(&Addr::parse(&server.addr()), Duration::from_secs(2)).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            conn.write_all(&frame[..cut]).unwrap();
            conn.flush().unwrap();
            std::thread::sleep(IDLE_POLL * 5 / 2);
            conn.write_all(&frame[cut..]).unwrap();
            conn.flush().unwrap();
            let p = read_frame(&mut conn).unwrap().expect("an answer");
            assert_eq!(
                Response::decode(Op::Ping, &p),
                Ok((7, Response::Ok)),
                "split at byte {cut}"
            );
        }
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
                        if let Err(crate::client::ClientError::Busy) = client.get(Space::Dec, k) {
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
        assert!(client.put(Space::Dec, 1, (true, 1)).is_err());
        assert!(server.is_crashed());
        server.shutdown().unwrap();
        // Restart over the same dir: the journaled-but-unacked record
        // is allowed to be present (it was written before the crash
        // point) — what matters is the journal replays cleanly.
        let server = Server::start(&ServerOptions::new(&dir), "127.0.0.1:0").unwrap();
        let client = Client::new(&server.addr());
        client.ping().unwrap();
        client.put(Space::Dec, 2, (false, 9)).unwrap();
        assert_eq!(client.get(Space::Dec, 2).unwrap(), Some((false, 9)));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
