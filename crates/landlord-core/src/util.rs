//! Small utilities shared across the crate: a fast non-cryptographic
//! hasher for integer-keyed maps and deterministic 64-bit mixing.
//!
//! The cache's hot paths hash millions of small integer keys (package ids,
//! image ids, MinHash band signatures). The default SipHash-1-3 hasher in
//! `std` is collision-resistant but slow for this workload, so we ship an
//! FxHash-style multiply-xor hasher (the same construction used inside
//! rustc). It is *not* HashDoS-resistant; all keys here are internally
//! generated, never attacker-controlled.

use std::hash::{BuildHasherDefault, Hasher};

/// Hash maps keyed by internally generated integers.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// Hash sets keyed by internally generated integers.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

const ROTATE: u32 = 5;
const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style hasher: fast multiply-rotate mixing of 8-byte words.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // 0x80 sentinel terminates the remainder so trailing zero
            // bytes don't collide with shorter inputs.
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            buf[rem.len()] = 0x80;
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// SplitMix64 finalization: a strong, cheap 64-bit bijective mixer.
///
/// Used to derive independent hash families for MinHash from a single
/// seed, and to turn sequential ids into well-distributed pseudo-random
/// values.
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combine two 64-bit values into one (order-sensitive).
#[inline]
pub const fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ b.rotate_left(32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of(bytes: &[u8]) -> u64 {
        let bh: BuildHasherDefault<FxHasher> = BuildHasherDefault::default();
        let mut h = bh.build_hasher();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fxhash_is_deterministic() {
        assert_eq!(hash_of(b"landlord"), hash_of(b"landlord"));
    }

    #[test]
    fn fxhash_distinguishes_inputs() {
        assert_ne!(hash_of(b"alpha"), hash_of(b"beta"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    #[test]
    fn fxhash_handles_non_multiple_of_eight() {
        // Lengths 1..=17 cover remainder paths.
        let mut seen = std::collections::HashSet::new();
        for len in 1..=17usize {
            let data: Vec<u8> = (0..len as u8).collect();
            assert!(seen.insert(hash_of(&data)), "collision at len {len}");
        }
    }

    #[test]
    fn mix64_is_bijective_sample() {
        // A bijection never collides; check a sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn mix64_changes_all_bit_regions() {
        let a = mix64(1);
        let b = mix64(2);
        // Expect differences in both halves of the word.
        assert_ne!(a as u32, b as u32);
        assert_ne!(a >> 32, b >> 32);
    }

    #[test]
    fn mix2_is_order_sensitive() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }

    #[test]
    fn fxhashmap_basic_use() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&21), Some(&42));
        assert_eq!(m.len(), 100);
    }
}
