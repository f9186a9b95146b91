//! A fast hasher for the compiler's in-memory, id-keyed maps: rustc's
//! `FxHasher` (per word: rotate, xor, multiply).
//!
//! The compiler's maps and sets are keyed by instruction, block and
//! function ids and by [`crate::Value`]s, all of them made by the
//! program itself, never read from outside it. For such keys SipHash's
//! protection against crafted collisions buys nothing, and it costs
//! several times more per key than one multiply per word.
//!
//! Use it only for state that lives and dies inside one process. Its
//! hashes are not a stable format and resist no adversary, so anything
//! persisted or sent (executable keys, decision digests, journal and
//! wire checksums) keeps the hash it has.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// rustc's multiplier: an odd constant with well-spread bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher itself; deterministic (no per-process key), so iteration
/// order over an Fx map repeats from run to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add_word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstId;
    use crate::module::FunctionId;
    use crate::value::Value;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(x)
    }

    #[test]
    fn equal_keys_hash_equal_across_hashers() {
        let key = (FunctionId(3), Value::Inst(InstId(17)), Value::Arg(1));
        assert_eq!(fx(&key), fx(&key.clone()));
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        "a string key".hash(&mut a);
        "a string key".hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(fx(&Value::Inst(InstId(1))), fx(&Value::Arg(1)));
    }

    #[test]
    fn map_round_trips_100k_distinct_keys() {
        let key = |i: u32| {
            let b = match i % 4 {
                0 => Value::Inst(InstId(i)),
                1 => Value::Arg(i),
                2 => Value::ConstInt(i as i64),
                _ => Value::Global(crate::module::GlobalId(i)),
            };
            (FunctionId(i % 7), Value::Inst(InstId(i / 3)), b)
        };
        let mut m: FxHashMap<(FunctionId, Value, Value), usize> = FxHashMap::default();
        for i in 0..100_000u32 {
            assert!(m.insert(key(i), i as usize).is_none(), "key {i} collided");
        }
        assert_eq!(m.len(), 100_000);
        for i in 0..100_000u32 {
            assert_eq!(m.get(&key(i)), Some(&(i as usize)));
        }
    }
}
