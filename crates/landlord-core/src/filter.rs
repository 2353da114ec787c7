//! Static approximate-membership filters for package IDs.
//!
//! The sharded frontend's 256-bit per-shard bloom
//! ([`crate::cache::ShardedImageCache`]) is deliberately tiny — cheap
//! to consult lock-free, but at millions of distinct package IDs its
//! false-positive rate saturates toward 1 and the peek stops pruning
//! anything. This module provides the complementary layer: an **xor
//! filter** (Graf & Lemire, *Xor Filters: Faster and Smaller Than
//! Bloom and Cuckoo Filters*, 2020) sized at ~9.84 bits per key with a
//! fixed ≈0.39% false-positive rate regardless of how many keys it
//! holds. It is static — built once from a key set, never mutated — a
//! shape that matches how the persistent cache uses it: built from the
//! recovered state on open and rebuilt only at each checkpoint
//! (`PersistentCache::checkpoint`), with an exact overlay set covering
//! the ids admitted in between.
//!
//! Construction is the standard 3-wise peeling over three disjoint
//! blocks, retried with successive deterministic seeds until the
//! hypergraph is acyclic (success probability per try is high; a
//! handful of retries covers adversarial sets). No randomness source
//! is consumed — seeds derive from a fixed SplitMix64 walk, so the
//! same key set always builds the identical filter.

/// Fixed false-positive budget the 8-bit fingerprint guarantees:
/// 1/256 ≈ 0.39%, comfortably under the 0.6% design budget the
/// membership tests assert.
pub const XOR8_FP_RATE: f64 = 1.0 / 256.0;

const MAX_BUILD_ATTEMPTS: u32 = 64;

/// SplitMix64 finalizer: the same mixing the rest of the workspace
/// uses for deterministic hashing.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Multiply-shift reduction of a 32-bit slice of `h` onto `[0, n)`
/// without modulo bias (Lemire's fastrange).
fn reduce(h: u32, n: u32) -> u32 {
    ((u64::from(h) * u64::from(n)) >> 32) as u32
}

/// A static xor filter over `u64` keys with 8-bit fingerprints.
///
/// `contains` never returns `false` for a key that was in the build
/// set; it returns `true` for an absent key with probability
/// [`XOR8_FP_RATE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorFilter {
    seed: u64,
    block_len: u32,
    fingerprints: Vec<u8>,
}

impl XorFilter {
    /// Build a filter over `keys` (duplicates tolerated). Deterministic:
    /// the same key set yields byte-identical filters.
    pub fn build(keys: &[u64]) -> XorFilter {
        let mut keys = keys.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let n = keys.len();
        // Standard xor-filter sizing: 1.23·n slots split across three
        // blocks, with slack so tiny sets still peel.
        let block_len = ((n as f64 * 1.23).ceil() as u32 / 3 + 11).max(4);
        let mut attempt = 0u32;
        loop {
            let seed = mix64(0x1db1_u64.wrapping_add(u64::from(attempt)));
            if let Some(fingerprints) = try_build(&keys, seed, block_len) {
                return XorFilter {
                    seed,
                    block_len,
                    fingerprints,
                };
            }
            attempt += 1;
            if attempt >= MAX_BUILD_ATTEMPTS {
                // Astronomically unlikely for acyclic-with-slack sizing;
                // degrade to a filter that claims everything rather
                // than panic (conservative: false positives only).
                return XorFilter {
                    seed: 0,
                    block_len: 0,
                    fingerprints: Vec::new(),
                };
            }
        }
    }

    /// Number of fingerprint slots (three blocks).
    pub fn slots(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether `key` may be a member. `false` is definitive.
    pub fn contains(&self, key: u64) -> bool {
        if self.block_len == 0 {
            // Degenerate always-true filter (build fallback); callers
            // treat `true` as "maybe", so this is safe.
            return true;
        }
        let hash = mix64(key ^ self.seed);
        let fp = fingerprint(hash);
        let (i0, i1, i2) = slots_of(hash, self.block_len);
        fp == self.fingerprints[i0] ^ self.fingerprints[i1] ^ self.fingerprints[i2]
    }
}

fn fingerprint(hash: u64) -> u8 {
    (hash ^ (hash >> 32)) as u8
}

/// The three slot indices for a key hash, one per block.
fn slots_of(hash: u64, block_len: u32) -> (usize, usize, usize) {
    // u32 -> usize is a widening on every supported target; the
    // fallback is unreachable (and benign: index 0 of each block).
    let b = usize::try_from(block_len).unwrap_or(0);
    // Rotations (not shifts) keep all 32 reduced bits populated for
    // each block; a shift would starve the third block of entropy.
    let i0 = reduce(hash as u32, block_len) as usize;
    let i1 = reduce(hash.rotate_left(21) as u32, block_len) as usize + b;
    let i2 = reduce(hash.rotate_left(42) as u32, block_len) as usize + 2 * b;
    (i0, i1, i2)
}

/// One peeling attempt: returns the fingerprint table if the 3-regular
/// hypergraph induced by `seed` is acyclic (peels completely).
fn try_build(keys: &[u64], seed: u64, block_len: u32) -> Option<Vec<u8>> {
    let slots = 3 * usize::try_from(block_len).ok()?;
    // Per-slot xor-of-hashes and degree: a slot of degree 1 names its
    // single remaining key directly via the xor.
    let mut xor_hash = vec![0u64; slots];
    let mut degree = vec![0u32; slots];
    for &key in keys {
        let hash = mix64(key ^ seed);
        let (i0, i1, i2) = slots_of(hash, block_len);
        for i in [i0, i1, i2] {
            xor_hash[i] ^= hash;
            degree[i] += 1;
        }
    }

    let mut queue: Vec<usize> = (0..slots).filter(|&i| degree[i] == 1).collect();
    // Peel order: (hash, slot-it-was-peeled-at), assigned in reverse.
    let mut stack: Vec<(u64, usize)> = Vec::with_capacity(keys.len());
    while let Some(slot) = queue.pop() {
        if degree[slot] != 1 {
            continue; // stale queue entry; the key was peeled elsewhere
        }
        let hash = xor_hash[slot];
        stack.push((hash, slot));
        let (i0, i1, i2) = slots_of(hash, block_len);
        for i in [i0, i1, i2] {
            xor_hash[i] ^= hash;
            degree[i] -= 1;
            if degree[i] == 1 {
                queue.push(i);
            }
        }
    }
    if stack.len() != keys.len() {
        return None; // cyclic core remains; retry with the next seed
    }

    let mut fingerprints = vec![0u8; slots];
    for &(hash, slot) in stack.iter().rev() {
        let (i0, i1, i2) = slots_of(hash, block_len);
        let others = fingerprints[i0] ^ fingerprints[i1] ^ fingerprints[i2];
        // `slot`'s entry is still 0 here, so xoring the target in makes
        // the three-way xor equal the fingerprint.
        fingerprints[slot] = fingerprint(hash) ^ others;
    }
    Some(fingerprints)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives_small_and_empty() {
        let f = XorFilter::build(&[]);
        // Empty filter: no members required; absent keys should miss.
        let misses = (0u64..1000).filter(|&k| !f.contains(k)).count();
        assert!(misses >= 990, "empty filter nearly always says no");

        let keys = [7u64, 7, 42, 1_000_000, u64::MAX];
        let f = XorFilter::build(&keys);
        for &k in &keys {
            assert!(f.contains(k), "member {k} missing");
        }
    }

    #[test]
    fn deterministic_build() {
        let keys: Vec<u64> = (0..5000).map(mix64).collect();
        let a = XorFilter::build(&keys);
        let b = XorFilter::build(&keys);
        assert_eq!(a, b);
    }

    #[test]
    fn false_positive_rate_within_budget_at_100k_keys() {
        let keys: Vec<u64> = (0..100_000u64).map(|i| mix64(i ^ 0xabcd)).collect();
        let f = XorFilter::build(&keys);
        for &k in keys.iter().step_by(997) {
            assert!(f.contains(k));
        }
        // Probe keys disjoint from the member set by construction.
        let probes = 200_000u64;
        let mut fp = 0u64;
        for i in 0..probes {
            if f.contains(mix64(i ^ 0xabcd) ^ 0x8000_0000_0000_0000) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(
            rate < 0.006,
            "false-positive rate {rate:.4} exceeds the 0.6% budget"
        );
        // And sanity: it should be in the ballpark of the theoretical
        // 1/256, not accidentally zero-width.
        assert!(rate < XOR8_FP_RATE * 2.0, "rate {rate:.4} far above theory");
    }

    #[test]
    fn space_is_near_ten_bits_per_key() {
        let keys: Vec<u64> = (0..50_000u64).map(mix64).collect();
        let f = XorFilter::build(&keys);
        let bits_per_key = (f.slots() * 8) as f64 / keys.len() as f64;
        assert!(
            bits_per_key < 11.0,
            "xor8 should stay under 11 bits/key, got {bits_per_key:.2}"
        );
    }

    #[test]
    fn million_key_build_peels() {
        let keys: Vec<u64> = (0..1_000_000u64).map(mix64).collect();
        let f = XorFilter::build(&keys);
        assert!(f.slots() > 0);
        for &k in keys.iter().step_by(99_991) {
            assert!(f.contains(k));
        }
    }
}
