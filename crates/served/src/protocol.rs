//! The verdict-server wire protocol: framing, operations, status codes.
//!
//! Everything on the wire is a **frame** — a little-endian `u32` length
//! prefix, a little-endian `u64` FNV-1a checksum of the payload, and
//! then that many payload bytes:
//!
//! ```text
//! frame:    len u32 LE | sum u64 LE | payload (len bytes)
//! request:  version u8 | op u8     | req_id u64 LE | body
//! response: version u8 | status u8 | req_id u64 LE | body
//! ```
//!
//! Version 2 hardened the v1 protocol for a misbehaving wire:
//!
//! * the **checksum** makes any corrupted frame — a flipped bit
//!   anywhere in the payload — a detectable [`io::ErrorKind::InvalidData`]
//!   error instead of a silently wrong verdict;
//! * the **request id** is chosen by the client and echoed verbatim by
//!   the server, so a retried idempotent request can never be paired
//!   with a stale or foreign response.
//!
//! The version byte is [`VERSION`]; a server that does not speak the
//! client's version answers [`Status::BadVersion`] instead of guessing.
//! [`Status::Busy`] is the explicit load-shedding answer: the server is
//! alive but refused admission, and the client should fall back to its
//! local tiers without retrying or tripping its breaker. The
//! authoritative human-readable description (including a worked hex
//! example that `tests/served_roundtrip.rs` pins against this module)
//! lives in `docs/PROTOCOL.md`.
//!
//! # Verdicts
//!
//! A verdict lookup or append names one key space
//! ([`oraql_store::Space`]): [`Request::Get`] and [`Request::Put`]
//! carry it, and it picks the op byte (`GetDec`/`GetExe`,
//! `PutDec`/`PutExe`). Op bytes `0x06` and `0x07`, which carried the
//! retired reference-output records, are answered `bad-op`.
//!
//! # Concurrency contract
//!
//! The module is pure data plus blocking frame I/O helpers; nothing
//! here holds state. [`read_frame`]/[`write_frame`] may be called from
//! any thread on any `Read`/`Write`; one connection must not be shared
//! between threads without external serialization (interleaved frames
//! are garbage).

use oraql_store::{Space, Verdict};
use std::io::{self, Read, Write};

/// Protocol version spoken by this build (request and response byte 0).
/// Version 2 added the frame checksum, the echoed request id, and the
/// `busy` status; there is no v1 compatibility mode.
pub const VERSION: u8 = 2;

/// Upper bound on one frame's payload. Mirrors the store journal's
/// `MAX_PAYLOAD` defense: a corrupted or hostile length prefix must not
/// force a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// FNV-1a 64 over `bytes` — the frame checksum. The same function the
/// store journal uses for its record checksums; cheap, and a single
/// flipped bit anywhere in the payload changes it.
pub fn frame_sum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Request operations (request byte 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Liveness check; empty body, empty `Ok` response.
    Ping = 0x01,
    /// Look up a decisions-digest verdict: body `key u64 LE`.
    GetDec = 0x02,
    /// Look up an executable-hash verdict: body `key u64 LE`.
    GetExe = 0x03,
    /// Append a decisions-digest verdict: body `key u64 | pass u8 | unique u64`.
    PutDec = 0x04,
    /// Append an executable-hash verdict: same body shape as [`Op::PutDec`].
    PutExe = 0x05,
    /// Journal, store and server counters as UTF-8 text; empty body.
    Stats = 0x08,
    /// Force a group fsync of the journal now; empty body.
    Sync = 0x09,
    /// Compact the journal; empty body, text summary response.
    Compact = 0x0a,
    /// Metrics-registry snapshot as Prometheus-style text exposition;
    /// empty body. See `docs/OPERATIONS.md` § Monitoring.
    Metrics = 0x0b,
}

impl Op {
    /// Decodes a request op byte.
    pub fn from_byte(b: u8) -> Option<Op> {
        Some(match b {
            0x01 => Op::Ping,
            0x02 => Op::GetDec,
            0x03 => Op::GetExe,
            0x04 => Op::PutDec,
            0x05 => Op::PutExe,
            0x08 => Op::Stats,
            0x09 => Op::Sync,
            0x0a => Op::Compact,
            0x0b => Op::Metrics,
            _ => return None,
        })
    }
}

/// Response status codes (response byte 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; body is op-specific (see [`Response`]).
    Ok = 0x00,
    /// A lookup found no record for the key; empty body.
    NotFound = 0x01,
    /// The request payload could not be decoded; empty body.
    BadFrame = 0x02,
    /// The request op byte is unknown; empty body.
    BadOp = 0x03,
    /// The request version byte is not [`VERSION`]; body carries the
    /// server's version byte.
    BadVersion = 0x04,
    /// The server hit an I/O error executing the request; body is a
    /// UTF-8 error message.
    Io = 0x05,
    /// The server is overloaded and refused the request admission
    /// (load shedding); empty body. The request was **not** executed.
    /// Clients must fall back to their local tiers without retrying —
    /// the server is alive, retries only feed the overload.
    Busy = 0x06,
}

impl Status {
    /// Decodes a response status byte.
    pub fn from_byte(b: u8) -> Option<Status> {
        Some(match b {
            0x00 => Status::Ok,
            0x01 => Status::NotFound,
            0x02 => Status::BadFrame,
            0x03 => Status::BadOp,
            0x04 => Status::BadVersion,
            0x05 => Status::Io,
            0x06 => Status::Busy,
            _ => return None,
        })
    }

    /// Stable human-readable name (used in errors and docs).
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::NotFound => "not-found",
            Status::BadFrame => "bad-frame",
            Status::BadOp => "bad-op",
            Status::BadVersion => "bad-version",
            Status::Io => "io-error",
            Status::Busy => "busy",
        }
    }
}

/// One decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// [`Op::Ping`].
    Ping,
    /// [`Op::GetDec`] or [`Op::GetExe`]: look up a verdict.
    Get {
        /// The key space `key` lives in.
        space: Space,
        /// Salted decisions digest or module hash.
        key: u64,
    },
    /// [`Op::PutDec`] or [`Op::PutExe`]: append a verdict.
    Put {
        /// The key space `key` lives in.
        space: Space,
        /// Salted decisions digest or module hash.
        key: u64,
        /// Did the compiled program verify, and the unique ORAQL
        /// queries the probe reported.
        verdict: Verdict,
    },
    /// [`Op::Stats`].
    Stats,
    /// [`Op::Sync`].
    Sync,
    /// [`Op::Compact`].
    Compact,
    /// [`Op::Metrics`].
    Metrics,
}

impl Request {
    /// The op byte this request travels under.
    pub fn op(&self) -> Op {
        match self {
            Request::Ping => Op::Ping,
            Request::Get {
                space: Space::Dec, ..
            } => Op::GetDec,
            Request::Get {
                space: Space::Exe, ..
            } => Op::GetExe,
            Request::Put {
                space: Space::Dec, ..
            } => Op::PutDec,
            Request::Put {
                space: Space::Exe, ..
            } => Op::PutExe,
            Request::Stats => Op::Stats,
            Request::Sync => Op::Sync,
            Request::Compact => Op::Compact,
            Request::Metrics => Op::Metrics,
        }
    }

    fn body(&self) -> Vec<u8> {
        match self {
            Request::Ping
            | Request::Stats
            | Request::Sync
            | Request::Compact
            | Request::Metrics => Vec::new(),
            Request::Get { key, .. } => key.to_le_bytes().to_vec(),
            Request::Put {
                key,
                verdict: (pass, unique),
                ..
            } => {
                let mut b = Vec::with_capacity(17);
                b.extend_from_slice(&key.to_le_bytes());
                b.push(u8::from(*pass));
                b.extend_from_slice(&unique.to_le_bytes());
                b
            }
        }
    }

    /// Encodes the request as one complete frame (length prefix and
    /// checksum included), tagged with the caller-chosen `req_id` the
    /// server must echo.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        frame(&[VERSION, self.op() as u8], req_id, &self.body())
    }

    /// Decodes a request from a frame *payload* (the bytes after the
    /// length prefix and checksum), returning the request id and the
    /// request. A decode failure maps onto the status the server must
    /// answer with, paired with the request id to echo (0 when the
    /// header itself was too short to carry one).
    pub fn decode(payload: &[u8]) -> Result<(u64, Request), (Status, u64)> {
        if payload.len() < 10 {
            return Err((Status::BadFrame, 0));
        }
        let (version, op_byte) = (payload[0], payload[1]);
        let req_id = u64::from_le_bytes(payload[2..10].try_into().expect("len checked"));
        let body = &payload[10..];
        if version != VERSION {
            return Err((Status::BadVersion, req_id));
        }
        let op = Op::from_byte(op_byte).ok_or((Status::BadOp, req_id))?;
        let key_of = |b: &[u8]| -> Result<u64, (Status, u64)> {
            let raw: [u8; 8] = b.try_into().map_err(|_| (Status::BadFrame, req_id))?;
            Ok(u64::from_le_bytes(raw))
        };
        let space = match op {
            Op::GetExe | Op::PutExe => Space::Exe,
            _ => Space::Dec,
        };
        let req = match op {
            Op::Ping | Op::Stats | Op::Sync | Op::Compact | Op::Metrics => {
                if !body.is_empty() {
                    return Err((Status::BadFrame, req_id));
                }
                match op {
                    Op::Ping => Request::Ping,
                    Op::Stats => Request::Stats,
                    Op::Sync => Request::Sync,
                    Op::Metrics => Request::Metrics,
                    _ => Request::Compact,
                }
            }
            Op::GetDec | Op::GetExe => Request::Get {
                space,
                key: key_of(body)?,
            },
            Op::PutDec | Op::PutExe => {
                if body.len() != 17 {
                    return Err((Status::BadFrame, req_id));
                }
                let pass = match body[8] {
                    0 => false,
                    1 => true,
                    _ => return Err((Status::BadFrame, req_id)),
                };
                Request::Put {
                    space,
                    key: key_of(&body[0..8])?,
                    verdict: (pass, key_of(&body[9..17])?),
                }
            }
        };
        Ok((req_id, req))
    }
}

/// One decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// [`Status::Ok`] with an empty body (ping, puts, sync).
    Ok,
    /// [`Status::Ok`] carrying the verdict a `Get` found.
    Verdict(Verdict),
    /// [`Status::Ok`] carrying UTF-8 text (stats, compact and metrics
    /// summaries).
    Text(String),
    /// [`Status::NotFound`] — the lookup key has no record.
    NotFound,
    /// [`Status::Busy`] — the request was shed, not executed.
    Busy,
    /// Any error status; the string is the (possibly empty) body.
    Err(Status, String),
}

impl Response {
    /// Encodes the response as one complete frame, echoing `req_id`.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        match self {
            Response::Ok => frame(&[VERSION, Status::Ok as u8], req_id, &[]),
            Response::Verdict((pass, unique)) => {
                let mut body = Vec::with_capacity(9);
                body.push(u8::from(*pass));
                body.extend_from_slice(&unique.to_le_bytes());
                frame(&[VERSION, Status::Ok as u8], req_id, &body)
            }
            Response::Text(t) => frame(&[VERSION, Status::Ok as u8], req_id, t.as_bytes()),
            Response::NotFound => frame(&[VERSION, Status::NotFound as u8], req_id, &[]),
            Response::Busy => frame(&[VERSION, Status::Busy as u8], req_id, &[]),
            Response::Err(status, msg) => frame(&[VERSION, *status as u8], req_id, msg.as_bytes()),
        }
    }

    /// Decodes a response from a frame payload, returning the echoed
    /// request id and the response. `op` is the request this response
    /// answers — `Ok` bodies are op-specific.
    pub fn decode(op: Op, payload: &[u8]) -> Result<(u64, Response), String> {
        if payload.len() < 10 {
            return Err("short response payload".into());
        }
        let (version, status) = (payload[0], payload[1]);
        let req_id = u64::from_le_bytes(payload[2..10].try_into().expect("len checked"));
        let body = &payload[10..];
        if version != VERSION {
            return Err(format!("server speaks protocol version {version}"));
        }
        let status = Status::from_byte(status)
            .ok_or_else(|| format!("unknown response status {status:#04x}"))?;
        let resp = match status {
            Status::Ok => match op {
                Op::GetDec | Op::GetExe => {
                    if body.len() != 9 || body[0] > 1 {
                        return Err("malformed verdict body".into());
                    }
                    let raw: [u8; 8] = body[1..9].try_into().map_err(|_| "short verdict body")?;
                    Response::Verdict((body[0] == 1, u64::from_le_bytes(raw)))
                }
                Op::Stats | Op::Compact | Op::Metrics => Response::Text(
                    String::from_utf8(body.to_vec()).map_err(|_| "non-UTF-8 text body")?,
                ),
                Op::Ping | Op::PutDec | Op::PutExe | Op::Sync => Response::Ok,
            },
            Status::NotFound => Response::NotFound,
            Status::Busy => Response::Busy,
            err => Response::Err(err, String::from_utf8_lossy(body).into_owned()),
        };
        Ok((req_id, resp))
    }
}

fn frame(head: &[u8], req_id: u64, body: &[u8]) -> Vec<u8> {
    let len = head.len() + 8 + body.len();
    let mut f = Vec::with_capacity(12 + len);
    f.extend_from_slice(&(len as u32).to_le_bytes());
    f.extend_from_slice(&[0u8; 8]); // checksum placeholder
    f.extend_from_slice(head);
    f.extend_from_slice(&req_id.to_le_bytes());
    f.extend_from_slice(body);
    let sum = frame_sum(&f[12..]);
    f[4..12].copy_from_slice(&sum.to_le_bytes());
    f
}

/// Reads one frame, verifies its checksum, and returns its payload.
/// `Ok(None)` is a clean EOF *between* frames (the peer hung up); EOF
/// mid-frame, a length prefix past [`MAX_FRAME`], or a checksum
/// mismatch is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut head = [0u8; 12];
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(head[0..4].try_into().expect("sized")) as usize;
    let sum = u64::from_le_bytes(head[4..12].try_into().expect("sized"));
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if frame_sum(&payload) != sum {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(payload))
}

/// Writes one already-encoded frame (as produced by
/// [`Request::encode`] / [`Response::encode`]).
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Get {
                space: Space::Dec,
                key: 7,
            },
            Request::Get {
                space: Space::Exe,
                key: u64::MAX,
            },
            Request::Put {
                space: Space::Dec,
                key: 0x0123_4567_89ab_cdef,
                verdict: (true, 42),
            },
            Request::Put {
                space: Space::Exe,
                key: 1,
                verdict: (false, 0),
            },
            Request::Stats,
            Request::Sync,
            Request::Compact,
            Request::Metrics,
        ]
    }

    #[test]
    fn verdict_requests_keep_their_op_bytes() {
        let ops: Vec<u8> = all_requests()[1..5].iter().map(|r| r.op() as u8).collect();
        assert_eq!(ops, [0x02, 0x03, 0x04, 0x05]);
        // Both spaces share one body shape; only the op byte differs.
        let body = |r: &Request| r.encode(9)[22..].to_vec();
        for space in [Space::Dec, Space::Exe] {
            assert_eq!(
                body(&Request::Get { space, key: 5 }),
                5u64.to_le_bytes().to_vec()
            );
            let put = body(&Request::Put {
                space,
                key: 5,
                verdict: (true, 6),
            });
            assert_eq!(put[..8], 5u64.to_le_bytes());
            assert_eq!(put[8], 1);
            assert_eq!(put[9..], 6u64.to_le_bytes());
        }
    }

    #[test]
    fn request_roundtrip() {
        for (i, req) in all_requests().into_iter().enumerate() {
            let req_id = 0x1000 + i as u64;
            let f = req.encode(req_id);
            let len = u32::from_le_bytes(f[0..4].try_into().unwrap()) as usize;
            assert_eq!(len, f.len() - 12, "{req:?}");
            let sum = u64::from_le_bytes(f[4..12].try_into().unwrap());
            assert_eq!(sum, frame_sum(&f[12..]), "{req:?}");
            assert_eq!(Request::decode(&f[12..]), Ok((req_id, req)));
        }
    }

    #[test]
    fn response_roundtrip() {
        let cases = [
            (Op::Ping, Response::Ok),
            (Op::GetDec, Response::Verdict((true, 42))),
            (Op::GetExe, Response::Verdict((false, 0))),
            (Op::GetExe, Response::NotFound),
            (Op::Stats, Response::Text("total: 0 lookups".into())),
            (Op::PutDec, Response::Ok),
            (Op::PutDec, Response::Busy),
            (Op::GetDec, Response::Busy),
            (Op::Sync, Response::Ok),
            (
                Op::Compact,
                Response::Text("3 records, 138 -> 92 bytes".into()),
            ),
            (
                Op::Metrics,
                Response::Text(
                    "# TYPE oraql_store_appends_total counter\noraql_store_appends_total 7\n"
                        .into(),
                ),
            ),
            (Op::Ping, Response::Err(Status::BadOp, String::new())),
            (Op::GetDec, Response::Err(Status::Io, "disk died".into())),
        ];
        for (i, (op, resp)) in cases.into_iter().enumerate() {
            let req_id = 0x2000 + i as u64;
            let f = resp.encode(req_id);
            assert_eq!(
                Response::decode(op, &f[12..]),
                Ok((req_id, resp.clone())),
                "{resp:?}"
            );
        }
    }

    /// Builds a raw request payload (no frame prefix): `version | op |
    /// req_id | body`.
    fn raw(version: u8, op: u8, req_id: u64, body: &[u8]) -> Vec<u8> {
        let mut p = vec![version, op];
        p.extend_from_slice(&req_id.to_le_bytes());
        p.extend_from_slice(body);
        p
    }

    #[test]
    fn malformed_requests_classify() {
        assert_eq!(Request::decode(&[]), Err((Status::BadFrame, 0)));
        assert_eq!(Request::decode(&[VERSION]), Err((Status::BadFrame, 0)));
        // Header too short to carry a request id: echo id 0.
        assert_eq!(
            Request::decode(&[VERSION, Op::Ping as u8, 1, 2]),
            Err((Status::BadFrame, 0))
        );
        // Bad version / bad op echo the parsed request id.
        assert_eq!(
            Request::decode(&raw(9, Op::Ping as u8, 77, &[])),
            Err((Status::BadVersion, 77))
        );
        assert_eq!(
            Request::decode(&raw(VERSION, 0xee, 78, &[])),
            Err((Status::BadOp, 78))
        );
        // The retired reference-output ops are unknown ops now.
        for (op, id) in [(0x06, 82), (0x07, 83)] {
            assert_eq!(
                Request::decode(&raw(VERSION, op, id, &5u64.to_le_bytes())),
                Err((Status::BadOp, id))
            );
        }
        // Ping carries no body.
        assert_eq!(
            Request::decode(&raw(VERSION, Op::Ping as u8, 79, &[1])),
            Err((Status::BadFrame, 79))
        );
        // Truncated key.
        assert_eq!(
            Request::decode(&raw(VERSION, Op::GetDec as u8, 80, &[1, 2, 3])),
            Err((Status::BadFrame, 80))
        );
        // Non-boolean pass byte.
        let mut put = Request::Put {
            space: Space::Dec,
            key: 1,
            verdict: (true, 2),
        }
        .encode(81);
        put[12 + 2 + 8 + 8] = 7;
        assert_eq!(Request::decode(&put[12..]), Err((Status::BadFrame, 81)));
    }

    #[test]
    fn frame_io_roundtrip_and_eof() {
        let mut buf = Vec::new();
        let req = Request::Get {
            space: Space::Dec,
            key: 5,
        };
        write_frame(&mut buf, &req.encode(1)).unwrap();
        write_frame(&mut buf, &Request::Ping.encode(2)).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()),
            Ok((1, req))
        );
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()),
            Ok((2, Request::Ping))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // EOF inside a frame is an error, not a silent None.
        let mut torn = std::io::Cursor::new(Request::Ping.encode(3)[..13].to_vec());
        assert!(read_frame(&mut torn).is_err());
        // An absurd length prefix is rejected before allocating.
        let mut hostile = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(read_frame(&mut hostile).is_err());
    }

    #[test]
    fn checksum_catches_any_single_byte_garble() {
        let clean = Request::Put {
            space: Space::Exe,
            key: 0xdead_beef,
            verdict: (true, 9),
        }
        .encode(0x51);
        // Flip each payload byte in turn: every corruption must be
        // detected (this is what makes the `frame-garble` fault site
        // recoverable rather than silently unsound).
        for i in 12..clean.len() {
            let mut garbled = clean.clone();
            garbled[i] ^= 0x40;
            let mut r = std::io::Cursor::new(garbled);
            let err = read_frame(&mut r).expect_err("garble must not pass");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {i}");
        }
        // And the clean frame still reads.
        let mut r = std::io::Cursor::new(clean);
        assert!(read_frame(&mut r).unwrap().is_some());
    }
}
