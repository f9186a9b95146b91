//! # oraql-served — the alias oracle as a service
//!
//! The [`oraql_store`] journal makes probe verdicts durable for one
//! process; this crate makes them **shared**. A long-lived daemon owns
//! the verdict corpus as one [`oraql_store`] journal and serves lookups
//! / accepts appends from many concurrent clients over a length-prefixed
//! binary protocol on a TCP or Unix-domain socket — the "compile farm"
//! deployment the ROADMAP names: one oracle, many drivers, each probe
//! verdict paid for once anywhere and replayed everywhere.
//!
//! Three modules, layered:
//!
//! * [`protocol`] — pure wire format: framing, ops, status codes
//!   (human-readable spec in `docs/PROTOCOL.md`);
//! * [`server`] — the daemon: one journal whose in-memory map answers
//!   lookups without touching disk, group fsync, thread-per-connection
//!   serving (operational guide in `docs/OPERATIONS.md`);
//! * [`client`] — the blocking client the driver embeds as its third
//!   cache tier, with timeouts and a circuit breaker so a dead server
//!   degrades to the local store instead of stalling probes.
//!
//! # Concurrency contract (crate-wide summary)
//!
//! Every public type states its own contract; the shape is: [`server::Server`]
//! and [`client::Client`] are `Send + Sync`, shareable via `Arc` from
//! any number of threads; [`net::Conn`] is single-owner; [`protocol`]
//! is stateless. No lock in this crate is ever held across a blocking
//! socket call on another connection, and the server's data path takes
//! only the store's one lock, so the system cannot deadlock on its own
//! locks.
//!
//! Everything is std-only: `TcpListener`/`UnixListener`, `std::thread`,
//! `std::sync` — no external dependencies, mirroring the rest of the
//! workspace.

pub mod client;
pub mod net;
pub mod protocol;
pub mod server;

pub use client::{backoff_delay, Client, ClientError, ClientOptions, ClientStats};
pub use net::Addr;
pub use server::{CrashMode, Server, ServerOptions};
