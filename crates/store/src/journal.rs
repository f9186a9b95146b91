//! The on-disk journal: wire format, checksums, and the recovery scan.
//!
//! A journal file is a fixed 16-byte header followed by a flat sequence
//! of self-checking records:
//!
//! ```text
//! header:  magic "ORAQLST1" (8) | version u32 LE | reserved u32 LE
//! record:  tag u8 | payload_len u32 LE | checksum u64 LE | payload
//! ```
//!
//! The checksum is FNV-1a 64 over the tag byte followed by the payload
//! bytes, so neither field can be swapped or bit-flipped unnoticed.
//! Each record is one verdict, and its tag names the key space
//! ([`Space`]) its key lives in:
//!
//! * `1` — executable-hash verdict: `key u64 | pass u8 | unique u64`
//! * `2` — decisions-digest verdict: same payload shape
//!
//! Tag `3` (reference outputs, `key u64 | utf8 bytes`) is retired: the
//! case salt already hashes the references, and nothing read the
//! record. Journals written before hold it; [`scan`] skips an intact
//! one without counting it corrupt, and compaction drops it.
//!
//! # Recovery guarantees
//!
//! [`scan`] never panics on hostile bytes. Three failure classes are
//! distinguished and counted:
//!
//! * **torn tail** — the file ends inside a record header or payload
//!   (the classic kill-mid-write). The partial bytes are dropped and
//!   the scan reports the offset where the valid prefix ends, so the
//!   opener can truncate and append safely after it.
//! * **corrupt record** — the checksum does not match (or the tag is
//!   unknown) but the declared length stays in bounds. The record is
//!   skipped and the scan continues at the next offset; a corrupted
//!   *length* field degenerates into a checksum failure downstream or a
//!   torn tail, never an out-of-bounds read.
//! * **bad header** — wrong magic or unsupported version. This is the
//!   only hard error: silently rewriting a file that is not ours would
//!   destroy data.

use crate::{Space, Verdict};

/// Journal magic, first 8 bytes of every store file.
pub const MAGIC: [u8; 8] = *b"ORAQLST1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 16;
/// Record header length in bytes (tag + payload_len + checksum).
pub const RECORD_HEADER_LEN: usize = 1 + 4 + 8;
/// Upper bound on a single record payload (defensive: a corrupted
/// length field may not force a multi-gigabyte allocation).
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Tag of the retired reference-output record (`key u64 | utf8
/// bytes`). Journals written before its retirement may hold it: an
/// intact one is skipped, neither recovered nor counted corrupt.
const RETIRED_REFERENCE_TAG: u8 = 3;

/// Verdict payload length: `key u64 | pass u8 | unique u64`.
const VERDICT_PAYLOAD_LEN: usize = 17;

/// One decoded journal record: a verdict filed under one key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// The key space, which the record's tag names.
    pub space: Space,
    /// Salted decisions digest or executable hash.
    pub key: u64,
    /// Did the compiled program verify, and the unique ORAQL queries
    /// of that compilation.
    pub verdict: Verdict,
}

impl Record {
    fn tag(&self) -> u8 {
        match self.space {
            Space::Exe => 1,
            Space::Dec => 2,
        }
    }

    fn decode(tag: u8, payload: &[u8]) -> Option<Record> {
        let space = match tag {
            1 => Space::Exe,
            2 => Space::Dec,
            _ => return None,
        };
        if payload.len() != VERDICT_PAYLOAD_LEN {
            return None;
        }
        let key = u64::from_le_bytes(payload[0..8].try_into().ok()?);
        let pass = match payload[8] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let unique = u64::from_le_bytes(payload[9..17].try_into().ok()?);
        Some(Record {
            space,
            key,
            verdict: (pass, unique),
        })
    }

    /// Encodes the record as one wire frame (record header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let (pass, unique) = self.verdict;
        let mut payload = [0u8; VERDICT_PAYLOAD_LEN];
        payload[0..8].copy_from_slice(&self.key.to_le_bytes());
        payload[8] = u8::from(pass);
        payload[9..17].copy_from_slice(&unique.to_le_bytes());
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + VERDICT_PAYLOAD_LEN);
        frame.push(self.tag());
        frame.extend_from_slice(&(VERDICT_PAYLOAD_LEN as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(self.tag(), &payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

/// FNV-1a 64 over the tag byte followed by the payload.
pub fn checksum(tag: u8, payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    h ^= u64::from(tag);
    h = h.wrapping_mul(PRIME);
    for &b in payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Renders the 16-byte file header.
pub fn header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h
}

/// Why a journal could not be opened at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// The first 8 bytes are not [`MAGIC`] — this is not a store file.
    BadMagic,
    /// The version is newer than this code understands.
    BadVersion(u32),
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::BadMagic => write!(f, "not an oraql-store journal (bad magic)"),
            HeaderError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
        }
    }
}

/// Outcome of scanning journal bytes.
#[derive(Debug, Default)]
pub struct Scan {
    /// Every intact record, in file order.
    pub records: Vec<Record>,
    /// Checksum-mismatched / undecodable records that were skipped.
    pub corrupt: u64,
    /// 1 when a torn tail (partial final record) was dropped.
    pub torn: u64,
    /// Offset one past the last frame that was *consumed* (valid or
    /// corrupt-but-well-framed) — the safe truncate-and-append point.
    pub valid_end: u64,
}

/// Scans every record frame after the header. `base` is the absolute
/// file offset of `bytes[0]` (i.e. [`HEADER_LEN`] for a full-file scan),
/// used to report [`Scan::valid_end`] as an absolute offset.
pub fn scan(bytes: &[u8], base: u64) -> Scan {
    let mut s = Scan {
        valid_end: base,
        ..Scan::default()
    };
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < RECORD_HEADER_LEN {
            s.torn = 1;
            break;
        }
        let tag = rest[0];
        // rest.len() >= RECORD_HEADER_LEN was checked above, so these
        // fixed-index reads cannot go out of bounds.
        let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
        let want = u64::from_le_bytes([
            rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11], rest[12],
        ]);
        if len > MAX_PAYLOAD {
            // A length this absurd means the frame itself is garbage;
            // nothing after it can be trusted to be framed. Treat the
            // remainder as a torn tail.
            s.torn = 1;
            break;
        }
        if rest.len() < RECORD_HEADER_LEN + len {
            s.torn = 1;
            break;
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        at += RECORD_HEADER_LEN + len;
        s.valid_end = base + at as u64;
        if checksum(tag, payload) != want {
            s.corrupt += 1;
            continue;
        }
        match Record::decode(tag, payload) {
            Some(r) => s.records.push(r),
            None if tag == RETIRED_REFERENCE_TAG => {}
            None => s.corrupt += 1,
        }
    }
    s
}

/// Validates the header bytes. Defensive against short input: anything
/// shorter than [`HEADER_LEN`] is rejected as [`HeaderError::BadMagic`]
/// rather than panicking (a server replaying an arbitrary journal file
/// must never be able to crash here).
pub fn check_header(bytes: &[u8]) -> Result<(), HeaderError> {
    if bytes.get(0..8) != Some(&MAGIC[..]) {
        return Err(HeaderError::BadMagic);
    }
    let v = match bytes.get(8..12) {
        Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        None => return Err(HeaderError::BadMagic),
    };
    if v != VERSION {
        return Err(HeaderError::BadVersion(v));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record {
                space: Space::Exe,
                key: 0xdead_beef,
                verdict: (true, 42),
            },
            Record {
                space: Space::Dec,
                key: 7,
                verdict: (false, 0),
            },
            Record {
                space: Space::Dec,
                key: 99,
                verdict: (true, 3),
            },
        ]
    }

    fn frames(records: &[Record]) -> Vec<u8> {
        records.iter().flat_map(Record::encode).collect()
    }

    #[test]
    fn roundtrip_both_spaces() {
        let rs = sample();
        let s = scan(&frames(&rs), HEADER_LEN as u64);
        assert_eq!(s.records, rs);
        assert_eq!(s.corrupt, 0);
        assert_eq!(s.torn, 0);
        assert_eq!(
            s.valid_end,
            (HEADER_LEN + frames(&rs).len()) as u64,
            "valid_end covers everything"
        );
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let rs = sample();
        let mut bytes = frames(&rs);
        let full = bytes.len();
        // Cut into the last record's payload.
        bytes.truncate(full - 5);
        let s = scan(&bytes, HEADER_LEN as u64);
        assert_eq!(s.records, rs[..2]);
        assert_eq!(s.torn, 1);
        assert_eq!(
            s.valid_end,
            (HEADER_LEN + frames(&rs[..2]).len()) as u64,
            "valid_end stops before the torn frame"
        );
        // Cut into a record *header* too.
        let mut bytes = frames(&rs);
        bytes.truncate(frames(&rs[..1]).len() + 3);
        let s = scan(&bytes, HEADER_LEN as u64);
        assert_eq!(s.records, rs[..1]);
        assert_eq!(s.torn, 1);
    }

    #[test]
    fn corrupt_record_is_skipped_and_counted() {
        let rs = sample();
        let mut bytes = frames(&rs);
        // Flip a byte inside the first record's payload.
        bytes[RECORD_HEADER_LEN + 2] ^= 0xff;
        let s = scan(&bytes, HEADER_LEN as u64);
        assert_eq!(s.records, rs[1..]);
        assert_eq!(s.corrupt, 1);
        assert_eq!(s.torn, 0);
    }

    #[test]
    fn unknown_tag_counts_as_corrupt() {
        let mut bytes = frames(&sample()[..1]);
        bytes[0] = 200; // unknown tag; checksum now also mismatches
        let s = scan(&bytes, HEADER_LEN as u64);
        assert!(s.records.is_empty());
        assert_eq!(s.corrupt, 1);
    }

    #[test]
    fn absurd_length_degrades_to_torn_tail() {
        let rs = sample();
        let mut bytes = frames(&rs);
        // Claim a payload far past MAX_PAYLOAD in the second frame.
        let second = frames(&rs[..1]).len();
        bytes[second + 1..second + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        let s = scan(&bytes, HEADER_LEN as u64);
        assert_eq!(s.records, rs[..1]);
        assert_eq!(s.torn, 1);
        assert_eq!(s.valid_end, (HEADER_LEN + second) as u64);
    }

    #[test]
    fn header_checks() {
        assert!(check_header(&header()).is_ok());
        let mut h = header();
        h[0] = b'X';
        assert_eq!(check_header(&h), Err(HeaderError::BadMagic));
        let mut h = header();
        h[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(check_header(&h), Err(HeaderError::BadVersion(9)));
    }

    #[test]
    fn verdict_frames_keep_their_bytes() {
        // Tag, payload length, FNV-1a checksum, key, pass, unique: the
        // format journals have always had.
        let frame = Record {
            space: Space::Dec,
            key: 0x0123_4567_89ab_cdef,
            verdict: (true, 42),
        }
        .encode();
        let mut want = vec![2, 17, 0, 0, 0];
        let payload: Vec<u8> = [
            &0x0123_4567_89ab_cdefu64.to_le_bytes()[..],
            &[1],
            &42u64.to_le_bytes(),
        ]
        .concat();
        want.extend_from_slice(&checksum(2, &payload).to_le_bytes());
        want.extend_from_slice(&payload);
        assert_eq!(frame, want);
        let exe = Record {
            space: Space::Exe,
            key: 0x0123_4567_89ab_cdef,
            verdict: (true, 42),
        }
        .encode();
        assert_eq!(exe[0], 1);
        assert_eq!(exe[13..], want[13..], "one payload shape for both spaces");
    }

    #[test]
    fn non_boolean_pass_byte_is_corrupt() {
        let r = Record {
            space: Space::Exe,
            key: 1,
            verdict: (true, 2),
        };
        let mut bytes = r.encode();
        // Set the pass byte to 2 and fix up the checksum so only the
        // decoder can reject it.
        bytes[RECORD_HEADER_LEN + 8] = 2;
        let payload = bytes[RECORD_HEADER_LEN..].to_vec();
        let sum = checksum(1, &payload);
        bytes[5..13].copy_from_slice(&sum.to_le_bytes());
        let s = scan(&bytes, HEADER_LEN as u64);
        assert!(s.records.is_empty());
        assert_eq!(s.corrupt, 1);
    }
}
