//! The one non-default hasher of the compile path.
//!
//! Rule of the house: **a map keyed by a dense id is a `Vec`** —
//! `ValueId`, `BlockId` and `FuncId` index side tables directly. What is
//! left are the genuinely structural keys (the GVN/CSE expression keys:
//! an opcode plus a few operand ids), whose maps are probed once per
//! instruction; for those SipHash costs more than the lookup. They share
//! this multiplicative hasher — the trick `swpf_sim`'s TLB index uses.
//!
//! Not for keys that arrive from outside the program: value *names* in
//! `.swir` text stay on the standard collision-resistant hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiplicative hasher (rotate, xor, multiply by the
/// 64-bit golden ratio).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table reads the top bits for its control bytes and the low
        // bits for the bucket; a multiply leaves the low bits weak, so
        // fold.
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` over [`FastHasher`], for structural keys.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nearby_keys_spread_over_low_and_high_bits() {
        let hashes: Vec<u64> = (0u32..256).map(|i| hash_of((7u8, i, i + 1))).collect();
        let low: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let high: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 128, "low byte takes {} values", low.len());
        assert!(high.len() > 96, "top 7 bits take {} values", high.len());
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut m: FastMap<(u32, u32), u32> = FastMap::default();
        for i in 0..1000 {
            m.insert((i, i ^ 5), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(17, 17 ^ 5)), Some(&17));
        assert_eq!(m.get(&(17, 18)), None);
    }
}
