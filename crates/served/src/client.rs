//! The blocking client the driver embeds as its third cache tier.
//!
//! Design goals, in order:
//!
//! 1. **A dead server must not slow a probe down.** Connects and reads
//!    are bounded by short timeouts, and after a failure the client
//!    trips a circuit breaker: every call inside the cooldown window
//!    fails instantly with [`ClientError::Unavailable`] without
//!    touching the socket, so the driver's fallback to the local store
//!    costs nothing. When the cooldown expires the breaker goes
//!    **half-open**: exactly one request becomes the probe (single
//!    attempt, no retries); success closes the breaker, failure
//!    re-opens it for another cooldown.
//! 2. **A restarted or flaky server heals transparently.** Every
//!    operation here is idempotent (`GET`s are pure, `PUT`s are
//!    deduplicated by the server's store), so a failed request is
//!    retried up to [`ClientOptions::max_retries`] times on a fresh
//!    connection with jittered exponential backoff. Retries reuse the
//!    **same request id**, and the server echoes the id on every
//!    response — a stale or foreign response can never be paired with
//!    the wrong request.
//! 3. **An overloaded server is not a broken server.** A `BUSY`
//!    answer (load shedding, see `docs/PROTOCOL.md`) surfaces as
//!    [`ClientError::Busy`] immediately: it consumes no retries, does
//!    not trip the breaker (a shedding server is alive — during a
//!    half-open probe it *closes* the breaker), and tells the driver
//!    to fall back to its local tiers.
//!
//! Verdicts go through two calls, [`Client::get`] and [`Client::put`],
//! each naming its key space ([`oraql_store::Space`]).
//!
//! Backoff jitter is deterministic — a pure function of
//! `(seed, req_id, attempt)` via `splitmix64` (see [`backoff_delay`]) —
//! so N clients with distinct seeds spread their reconnects instead of
//! thundering-herding, and tests can assert the exact spread.
//!
//! # Concurrency contract
//!
//! A [`Client`] is `Send + Sync`; share one per process in an `Arc`.
//! The single underlying connection is behind a mutex — requests from
//! many threads serialize (including any backoff sleeps, which are
//! bounded by `backoff_cap`), which is the correct protocol behavior
//! (frames interleaved by two writers are garbage) and fine for the
//! driver, whose probe loop talks to the server at most a few times
//! per probe. Counters are atomics, readable at any time via
//! [`Client::stats`].

use crate::net::{Addr, Conn};
use crate::protocol::{read_frame, write_frame, Request, Response, Status};
use oraql_faults::splitmix64;
use oraql_store::{Space, Verdict};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server is (or was recently) unreachable; the circuit
    /// breaker is open. Callers should fall back to their local tier.
    Unavailable(String),
    /// The server shed the request with `BUSY` (admission control or
    /// connection cap): it is alive but overloaded, and the request
    /// was **not** executed. Fall back to the local tier; do not
    /// retry.
    Busy,
    /// The server answered with an error status.
    Remote(Status, String),
    /// The server answered bytes that do not decode as a response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unavailable(m) => write!(f, "verdict server unavailable: {m}"),
            ClientError::Busy => write!(f, "verdict server busy (request shed)"),
            ClientError::Remote(s, m) if m.is_empty() => {
                write!(f, "verdict server error: {}", s.as_str())
            }
            ClientError::Remote(s, m) => write!(f, "verdict server error: {} ({m})", s.as_str()),
            ClientError::Protocol(m) => write!(f, "verdict server protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Tunables for a [`Client`]. Plain data; the defaults match
/// [`Client::new`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Per-request socket timeout (connect, read, write). Default 2 s.
    pub timeout: Duration,
    /// How long the breaker stays open after a failure before the
    /// half-open probe. Default 250 ms.
    pub cooldown: Duration,
    /// Idempotent retries after the first attempt of a request (not
    /// counting the half-open probe, which gets exactly one attempt).
    /// Default 2.
    pub max_retries: u32,
    /// First retry's backoff before jitter; doubles per retry.
    /// Default 10 ms.
    pub backoff_base: Duration,
    /// Upper bound on one backoff sleep. Default 200 ms.
    pub backoff_cap: Duration,
    /// Seed for deterministic backoff jitter and request-id mixing.
    /// Defaults to a per-client unique value so concurrent clients
    /// de-correlate; pin it in tests.
    pub seed: u64,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        // Distinct per client so a fleet created in a loop still gets
        // de-correlated jitter (no OS entropy: hermetic + std-only).
        static NEXT_SEED: AtomicU64 = AtomicU64::new(1);
        ClientOptions {
            timeout: Client::DEFAULT_TIMEOUT,
            cooldown: Client::DEFAULT_COOLDOWN,
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            seed: splitmix64(0x0c11_e27b ^ NEXT_SEED.fetch_add(1, Ordering::Relaxed)),
        }
    }
}

/// The jittered exponential backoff before retry `attempt` (1-based)
/// of request `req_id`: `base · 2^(attempt-1)`, capped at `cap`, then
/// scaled into `[0.5, 1.0)` by a `splitmix64` hash of
/// `(seed, req_id, attempt)`. Pure — the reconnect-storm test asserts
/// the spread across seeds without racing wall clocks.
pub fn backoff_delay(
    seed: u64,
    req_id: u64,
    attempt: u32,
    base: Duration,
    cap: Duration,
) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let exp = exp.min(cap);
    let j = splitmix64(seed ^ req_id.rotate_left(17) ^ u64::from(attempt));
    exp.mul_f64(0.5 + (j % 1024) as f64 / 2048.0)
}

/// Breaker states, in the classic three-state shape. The state gauge
/// `oraql_client_breaker_state` publishes these as 0/1/2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Healthy: requests flow, failures trip to `Open`.
    Closed,
    /// Failing: every request inside the window fails fast.
    Open { until: Instant },
    /// Cooldown expired: the next request is the single probe.
    HalfOpen,
}

/// Live client counters (all monotone; relaxed loads/stores — they
/// feed the CLI summary, not synchronization).
#[derive(Debug, Default)]
struct Counters {
    lookups: AtomicU64,
    hits: AtomicU64,
    appends: AtomicU64,
    io_errors: AtomicU64,
    fast_fails: AtomicU64,
    busy: AtomicU64,
    retries: AtomicU64,
    connects: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
}

/// A plain-value copy of a client's counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// `GET` requests issued (both key spaces).
    pub lookups: u64,
    /// `GET`s the server answered with a record.
    pub hits: u64,
    /// `PUT` requests issued.
    pub appends: u64,
    /// Requests that died on a real socket/protocol error.
    pub io_errors: u64,
    /// Requests refused instantly by the open circuit breaker.
    pub fast_fails: u64,
    /// Requests the server shed with `BUSY`.
    pub busy: u64,
    /// Idempotent retry attempts (beyond each request's first try).
    pub retries: u64,
    /// Successful (re)connects.
    pub connects: u64,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Response bytes read.
    pub bytes_in: u64,
}

impl std::fmt::Display for ClientStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} lookups, {} appends, {} errors, {} fast-fails, {} busy, {} retries, {} connects",
            self.hits,
            self.lookups,
            self.appends,
            self.io_errors,
            self.fast_fails,
            self.busy,
            self.retries,
            self.connects
        )
    }
}

/// Connection state behind the client's mutex.
struct Link {
    conn: Option<Conn>,
    breaker: Breaker,
}

impl Default for Link {
    fn default() -> Link {
        Link {
            conn: None,
            breaker: Breaker::Closed,
        }
    }
}

/// A blocking verdict-server client with timeouts, idempotent retries,
/// and a three-state circuit breaker. See the module docs for the full
/// contract.
pub struct Client {
    addr: Addr,
    addr_str: String,
    opts: ClientOptions,
    link: Mutex<Link>,
    counters: Counters,
    next_req: AtomicU64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr_str)
            .field("stats", &self.stats())
            .finish()
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn breaker_gauge() -> &'static oraql_obs::Gauge {
    static G: std::sync::OnceLock<&'static oraql_obs::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| oraql_obs::global().gauge("oraql_client_breaker_state"))
}

fn retries_counter() -> &'static oraql_obs::Counter {
    static C: std::sync::OnceLock<&'static oraql_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| oraql_obs::global().counter("oraql_client_retries_total"))
}

fn busy_counter() -> &'static oraql_obs::Counter {
    static C: std::sync::OnceLock<&'static oraql_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| oraql_obs::global().counter("oraql_client_busy_total"))
}

impl Client {
    /// Default per-request socket timeout.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);
    /// Default circuit-breaker cooldown after a failure.
    pub const DEFAULT_COOLDOWN: Duration = Duration::from_millis(250);

    /// Builds a client for `addr` (see [`Addr::parse`] for the
    /// grammar) with default [`ClientOptions`]. No I/O happens here —
    /// the first request dials.
    pub fn new(addr: &str) -> Client {
        Client::with_options(addr, ClientOptions::default())
    }

    /// [`Client::new`] with explicit socket timeout and breaker
    /// cooldown (tests use tiny cooldowns to exercise recovery).
    pub fn with_timeouts(addr: &str, timeout: Duration, cooldown: Duration) -> Client {
        Client::with_options(
            addr,
            ClientOptions {
                timeout,
                cooldown,
                ..ClientOptions::default()
            },
        )
    }

    /// Builds a client with explicit [`ClientOptions`].
    pub fn with_options(addr: &str, opts: ClientOptions) -> Client {
        Client {
            addr: Addr::parse(addr),
            addr_str: addr.to_string(),
            opts,
            link: Mutex::new(Link::default()),
            counters: Counters::default(),
            next_req: AtomicU64::new(0),
        }
    }

    /// The address string this client dials.
    pub fn addr(&self) -> &str {
        &self.addr_str
    }

    /// The options this client runs with.
    pub fn options(&self) -> &ClientOptions {
        &self.opts
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClientStats {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ClientStats {
            lookups: r(&self.counters.lookups),
            hits: r(&self.counters.hits),
            appends: r(&self.counters.appends),
            io_errors: r(&self.counters.io_errors),
            fast_fails: r(&self.counters.fast_fails),
            busy: r(&self.counters.busy),
            retries: r(&self.counters.retries),
            connects: r(&self.counters.connects),
            bytes_out: r(&self.counters.bytes_out),
            bytes_in: r(&self.counters.bytes_in),
        }
    }

    /// A fresh request id: unique per client (a `splitmix64` bijection
    /// over a counter, mixed with the client seed so two clients'
    /// streams don't collide). The same id tags every retry of one
    /// logical request.
    fn new_req_id(&self) -> u64 {
        let n = self.next_req.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.opts.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// One logical request: breaker, idempotent retries, backoff, and
    /// `BUSY` interception, as described in the module docs. Holds the
    /// connection mutex for the whole exchange (including backoff).
    fn request(&self, req: &Request) -> Result<Response, ClientError> {
        let mut link = lock_ignore_poison(&self.link);
        let probing = match link.breaker {
            Breaker::Closed => false,
            Breaker::HalfOpen => true,
            Breaker::Open { until } => {
                if Instant::now() < until {
                    self.counters.fast_fails.fetch_add(1, Ordering::Relaxed);
                    return Err(ClientError::Unavailable(
                        "breaker open (in cooldown)".into(),
                    ));
                }
                link.breaker = Breaker::HalfOpen;
                breaker_gauge().set(2);
                true
            }
        };
        let req_id = self.new_req_id();
        let frame = req.encode(req_id);
        // The probe gets one shot; a normal request gets 1 + retries.
        let attempts = if probing {
            1
        } else {
            1 + self.opts.max_retries
        };
        let mut last_err = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                retries_counter().inc();
                std::thread::sleep(backoff_delay(
                    self.opts.seed,
                    req_id,
                    attempt,
                    self.opts.backoff_base,
                    self.opts.backoff_cap,
                ));
            }
            match self.exchange(&mut link, &frame, req.op(), req_id) {
                Ok(Response::Busy) => {
                    // Alive but shedding: no breaker trip, no retry —
                    // and a probe answered BUSY proves liveness.
                    self.counters.busy.fetch_add(1, Ordering::Relaxed);
                    busy_counter().inc();
                    link.breaker = Breaker::Closed;
                    breaker_gauge().set(0);
                    return Err(ClientError::Busy);
                }
                Ok(resp) => {
                    link.breaker = Breaker::Closed;
                    breaker_gauge().set(0);
                    return Ok(resp);
                }
                Err(e) => {
                    link.conn = None;
                    last_err = e;
                }
            }
        }
        self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        link.breaker = Breaker::Open {
            until: Instant::now() + self.opts.cooldown,
        };
        breaker_gauge().set(1);
        Err(ClientError::Unavailable(last_err))
    }

    /// Sends `frame` and reads one response on the cached connection,
    /// dialing first if needed, and checks the echoed request id.
    /// Errors are stringified for the caller to wrap (every failure
    /// class here means "server unreachable or incoherent", which the
    /// retry loop treats uniformly).
    fn exchange(
        &self,
        link: &mut Link,
        frame: &[u8],
        op: crate::protocol::Op,
        req_id: u64,
    ) -> Result<Response, String> {
        if link.conn.is_none() {
            let conn = Conn::connect(&self.addr, self.opts.timeout).map_err(|e| e.to_string())?;
            conn.set_read_timeout(Some(self.opts.timeout))
                .map_err(|e| e.to_string())?;
            conn.set_write_timeout(Some(self.opts.timeout))
                .map_err(|e| e.to_string())?;
            self.counters.connects.fetch_add(1, Ordering::Relaxed);
            link.conn = Some(conn);
        }
        // Checked is_none() above; keep the borrow local to this call.
        let Some(conn) = link.conn.as_mut() else {
            return Err("no connection".into());
        };
        write_frame(conn, frame).map_err(|e| e.to_string())?;
        self.counters
            .bytes_out
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        let payload = match read_frame(conn).map_err(|e| e.to_string())? {
            Some(p) => p,
            None => return Err("server closed the connection".into()),
        };
        self.counters
            .bytes_in
            .fetch_add((12 + payload.len()) as u64, Ordering::Relaxed);
        let (echoed, resp) = Response::decode(op, &payload)?;
        if echoed != req_id {
            // A stale response from an earlier timed-out request on
            // this connection: the stream is desynced, drop it.
            return Err(format!(
                "response id {echoed:#x} does not match request {req_id:#x}"
            ));
        }
        Ok(resp)
    }

    fn remote_err(resp: Response) -> ClientError {
        match resp {
            Response::Err(status, msg) => ClientError::Remote(status, msg),
            Response::Busy => ClientError::Busy, // unreachable: request() intercepts
            other => ClientError::Protocol(format!("unexpected response {other:?}")),
        }
    }

    /// Liveness check.
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(Self::remote_err(other)),
        }
    }

    /// Looks up the verdict filed under `key` in `space`.
    pub fn get(&self, space: Space, key: u64) -> Result<Option<Verdict>, ClientError> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.request(&Request::Get { space, key })? {
            Response::Verdict(v) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(v))
            }
            Response::NotFound => Ok(None),
            other => Err(Self::remote_err(other)),
        }
    }

    /// [`Client::get`] in [`Space::Dec`].
    pub fn get_dec(&self, key: u64) -> Result<Option<Verdict>, ClientError> {
        self.get(Space::Dec, key)
    }

    /// Files `verdict` under `key` in `space` on the server.
    pub fn put(&self, space: Space, key: u64, verdict: Verdict) -> Result<(), ClientError> {
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        match self.request(&Request::Put {
            space,
            key,
            verdict,
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::remote_err(other)),
        }
    }

    /// Fetches the server's `STATS` text.
    pub fn server_stats(&self) -> Result<String, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Text(t) => Ok(t),
            other => Err(Self::remote_err(other)),
        }
    }

    /// Fetches the server's `METRICS` text exposition (the daemon
    /// process's metrics registry, Prometheus-style `name value`
    /// lines; parse with `oraql_obs::Snapshot::parse`).
    pub fn server_metrics(&self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Text(t) => Ok(t),
            other => Err(Self::remote_err(other)),
        }
    }

    /// Forces a group fsync of the server's journal.
    pub fn sync(&self) -> Result<(), ClientError> {
        match self.request(&Request::Sync)? {
            Response::Ok => Ok(()),
            other => Err(Self::remote_err(other)),
        }
    }

    /// Compacts the server's journal; returns the one-line summary
    /// (`N records, BEFORE -> AFTER bytes`).
    pub fn server_compact(&self) -> Result<String, ClientError> {
        match self.request(&Request::Compact)? {
            Response::Text(t) => Ok(t),
            other => Err(Self::remote_err(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerOptions};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oraql_client_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Small options for breaker tests: no retries so each failure is
    /// one socket error, short cooldown so recovery is observable.
    fn snappy(addr: &str, cooldown: Duration) -> Client {
        Client::with_options(
            addr,
            ClientOptions {
                timeout: Duration::from_millis(500),
                cooldown,
                max_retries: 0,
                seed: 42,
                ..ClientOptions::default()
            },
        )
    }

    #[test]
    fn breaker_fast_fails_then_half_open_probe_recovers() {
        let dir = scratch("breaker");
        let cfg = ServerOptions::new(&dir);
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Generous cooldown so the breaker is observably open.
        let client = snappy(&addr, Duration::from_millis(200));
        client.put(Space::Dec, 1, (true, 1)).unwrap();
        server.shutdown().unwrap();
        // First call after the server died: a real error trips the breaker.
        assert!(matches!(
            client.get(Space::Dec, 1),
            Err(ClientError::Unavailable(_))
        ));
        let after_trip = client.stats().io_errors;
        assert!(after_trip >= 1);
        // Inside the cooldown: fail-fast, no new socket error.
        assert!(matches!(
            client.get(Space::Dec, 1),
            Err(ClientError::Unavailable(_))
        ));
        assert_eq!(client.stats().io_errors, after_trip);
        assert!(client.stats().fast_fails >= 1);
        // Cooldown expires against a still-dead server: the half-open
        // probe fails (one more io error) and re-opens the breaker.
        std::thread::sleep(Duration::from_millis(250));
        assert!(matches!(
            client.get(Space::Dec, 1),
            Err(ClientError::Unavailable(_))
        ));
        assert_eq!(client.stats().io_errors, after_trip + 1);
        // Restart on the same port and wait out the cooldown: the next
        // probe succeeds and closes the breaker for good.
        let port_cfg = ServerOptions::new(&dir);
        let server = Server::start(&port_cfg, &addr).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(client.get(Space::Dec, 1).unwrap(), Some((true, 1)));
        assert_eq!(client.get(Space::Dec, 1).unwrap(), Some((true, 1)));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retries_survive_server_restart() {
        let dir = scratch("retry");
        let cfg = ServerOptions::new(&dir);
        let server = Server::start(&cfg, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let client = Client::new(&addr);
        client.put(Space::Dec, 5, (true, 5)).unwrap();
        // Bounce the server; the client's cached connection is now
        // stale, but the next request must succeed via an idempotent
        // retry on a fresh connection, not error.
        server.shutdown().unwrap();
        let server = Server::start(&cfg, &addr).unwrap();
        assert_eq!(client.get(Space::Dec, 5).unwrap(), Some((true, 5)));
        assert!(client.stats().retries >= 1);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_clients_share_one_handle() {
        let dir = scratch("shared");
        let server = Server::start(&ServerOptions::new(&dir), "127.0.0.1:0").unwrap();
        let client = std::sync::Arc::new(Client::new(&server.addr()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = std::sync::Arc::clone(&client);
                s.spawn(move || {
                    for k in 0..25u64 {
                        let key = t * 100 + k;
                        c.put(Space::Dec, key, (true, key)).unwrap();
                        assert_eq!(c.get(Space::Dec, key).unwrap(), Some((true, key)));
                    }
                });
            }
        });
        assert_eq!(client.stats().appends, 100);
        assert_eq!(client.stats().hits, 100);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_bounded() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        // Deterministic: same inputs, same delay.
        assert_eq!(
            backoff_delay(1, 2, 1, base, cap),
            backoff_delay(1, 2, 1, base, cap)
        );
        // Bounded: never more than the cap, never less than half the
        // exponential step.
        for attempt in 1..8u32 {
            for seed in 0..32u64 {
                let d = backoff_delay(seed, 99, attempt, base, cap);
                assert!(d <= cap, "attempt {attempt} seed {seed}: {d:?}");
                assert!(d >= base / 2, "attempt {attempt} seed {seed}: {d:?}");
            }
        }
        // Exponential-ish: attempt 4's floor exceeds attempt 1's cap.
        let early_max = base.mul_f64(1.0);
        let late_min = backoff_delay(7, 7, 4, base, cap);
        assert!(late_min > early_max, "{late_min:?} vs {early_max:?}");
        // Jittered: distinct seeds give a spread of delays.
        let distinct: std::collections::HashSet<Duration> = (0..64u64)
            .map(|seed| backoff_delay(seed, 5, 2, base, cap))
            .collect();
        assert!(
            distinct.len() > 16,
            "only {} distinct delays",
            distinct.len()
        );
    }
}
