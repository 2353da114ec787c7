//! MinHash signatures and LSH candidate indexing.
//!
//! The paper notes (§V) that "a constant-time approximation of the
//! Jaccard metric (MinHash) is available for making an efficient first
//! pass at selecting similar images when the number of packages or
//! components is large", and that robust support for very large
//! specifications matters in practice (full-repository CVMFS metadata
//! listings run to gigabytes).
//!
//! This module provides:
//!
//! * [`MinHasher`] — generates fixed-length [`Signature`]s using `k`
//!   independent hash functions derived from one seed via SplitMix64
//!   mixing. The fraction of matching signature slots estimates the
//!   Jaccard *similarity*; the estimated distance is its complement.
//! * [`LshIndex`] — a banded locality-sensitive index over signatures.
//!   Signatures are split into `bands` groups of `rows` slots; images
//!   sharing any band hash become candidates. With similarity `s`, the
//!   probability of becoming a candidate is `1 − (1 − s^rows)^bands` —
//!   the classic S-curve — so near images are found with high
//!   probability while far images are mostly filtered out.
//!
//! [`crate::lsh::LshCache`] uses the index as a *pre-filter only*:
//! every candidate is confirmed with the exact Jaccard distance before
//! merging, so LSH can cause missed merge opportunities (false
//! negatives) but never an incorrect merge.

use landlord_core::spec::Spec;
use landlord_core::util::{mix2, mix64, FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

/// A MinHash signature: one minimum hash value per hash function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature(Box<[u64]>);

impl Signature {
    /// Number of hash functions (slots) in this signature.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the signature has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Raw slot values.
    #[inline]
    pub fn slots(&self) -> &[u64] {
        &self.0
    }

    /// Estimated Jaccard *similarity* between the underlying sets: the
    /// fraction of slots where the two signatures agree.
    pub fn estimate_similarity(&self, other: &Signature) -> f64 {
        assert_eq!(self.len(), other.len(), "signatures from different hashers");
        if self.is_empty() {
            return 1.0;
        }
        let matching = self
            .0
            .iter()
            .zip(other.0.iter())
            .filter(|(a, b)| a == b)
            .count();
        matching as f64 / self.len() as f64
    }

    /// Estimated Jaccard distance (`1 − similarity`).
    pub fn estimate_distance(&self, other: &Signature) -> f64 {
        1.0 - self.estimate_similarity(other)
    }

    /// The signature of the union of the two underlying sets: slot-wise
    /// minimum. This lets the cache maintain signatures across merges
    /// without rehashing the merged member list.
    pub fn union(&self, other: &Signature) -> Signature {
        assert_eq!(self.len(), other.len(), "signatures from different hashers");
        Signature(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(&a, &b)| a.min(b))
                .collect(),
        )
    }
}

/// Generates MinHash signatures with `k` hash functions.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Box<[u64]>,
}

impl MinHasher {
    /// Create a hasher with `k` hash functions derived from `seed`.
    ///
    /// Typical `k`: 64–256. Estimation standard error is roughly
    /// `1/sqrt(k)`, so `k = 128` gives ±0.09 at one sigma.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one hash function");
        let seeds = (0..k as u64).map(|i| mix64(seed ^ mix64(i + 1))).collect();
        MinHasher { seeds }
    }

    /// Number of hash functions.
    #[inline]
    pub fn k(&self) -> usize {
        self.seeds.len()
    }

    /// Compute the signature of a specification.
    ///
    /// An empty spec yields the all-`u64::MAX` signature, which estimates
    /// similarity 1 against other empty specs and (almost surely) 0
    /// against non-empty ones.
    pub fn signature(&self, spec: &Spec) -> Signature {
        let mut sig = vec![u64::MAX; self.seeds.len()];
        for id in spec.iter() {
            let base = mix64(id.0 as u64 + 0x9e37_79b9);
            for (slot, &seed) in sig.iter_mut().zip(self.seeds.iter()) {
                let h = mix2(base, seed);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        Signature(sig.into_boxed_slice())
    }
}

/// Shape of an [`LshIndex`]: `bands × rows` must equal the signature
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LshShape {
    /// Number of bands; more bands raise recall (and candidate noise).
    pub bands: usize,
    /// Slots per band; more rows sharpen the similarity threshold.
    pub rows: usize,
}

impl LshShape {
    /// The similarity at which the candidate probability crosses ~50%:
    /// the classic approximation `(1/bands)^(1/rows)`.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }
}

/// A banded LSH index from signature bands to image keys.
///
/// Keys are opaque `u64`s (the cache uses image ids).
#[derive(Debug, Clone)]
pub struct LshIndex {
    shape: LshShape,
    buckets: Vec<FxHashMap<u64, Vec<u64>>>,
    /// Per-key band hashes so entries can be removed without the signature.
    key_bands: FxHashMap<u64, Box<[u64]>>,
}

impl LshIndex {
    /// Create an index with the given shape.
    pub fn new(shape: LshShape) -> Self {
        assert!(shape.bands > 0 && shape.rows > 0);
        LshIndex {
            shape,
            buckets: (0..shape.bands).map(|_| FxHashMap::default()).collect(),
            key_bands: FxHashMap::default(),
        }
    }

    /// The configured shape.
    pub fn shape(&self) -> LshShape {
        self.shape
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.key_bands.len()
    }

    /// True when no keys are indexed.
    pub fn is_empty(&self) -> bool {
        self.key_bands.is_empty()
    }

    fn band_hashes(&self, sig: &Signature) -> Box<[u64]> {
        assert_eq!(
            sig.len(),
            self.shape.bands * self.shape.rows,
            "signature length {} does not match LSH shape {}x{}",
            sig.len(),
            self.shape.bands,
            self.shape.rows
        );
        sig.slots()
            .chunks_exact(self.shape.rows)
            .map(|chunk| {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for &v in chunk {
                    h = mix2(h, v);
                }
                h
            })
            .collect()
    }

    /// True when `key` is currently indexed.
    pub fn contains(&self, key: u64) -> bool {
        self.key_bands.contains_key(&key)
    }

    /// Insert (or re-insert) a key with its signature.
    pub fn insert(&mut self, key: u64, sig: &Signature) {
        self.remove(key);
        let bands = self.band_hashes(sig);
        for (band_idx, &bh) in bands.iter().enumerate() {
            self.buckets[band_idx].entry(bh).or_default().push(key);
        }
        self.key_bands.insert(key, bands);
    }

    /// Remove a key; returns true if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(bands) = self.key_bands.remove(&key) else {
            return false;
        };
        for (band_idx, &bh) in bands.iter().enumerate() {
            if let Some(bucket) = self.buckets[band_idx].get_mut(&bh) {
                bucket.retain(|&k| k != key);
                if bucket.is_empty() {
                    self.buckets[band_idx].remove(&bh);
                }
            }
        }
        true
    }

    /// Collect candidate keys sharing at least one band with `sig`,
    /// deduplicated, in unspecified order.
    pub fn candidates(&self, sig: &Signature) -> Vec<u64> {
        let bands = self.band_hashes(sig);
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for (band_idx, &bh) in bands.iter().enumerate() {
            if let Some(bucket) = self.buckets[band_idx].get(&bh) {
                for &k in bucket {
                    if seen.insert(k) {
                        out.push(k);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landlord_core::jaccard::jaccard_distance;
    use landlord_core::spec::{PackageId, Spec};

    fn spec(range: std::ops::Range<u32>) -> Spec {
        Spec::from_ids(range.map(PackageId))
    }

    #[test]
    fn identical_specs_identical_signatures() {
        let mh = MinHasher::new(64, 42);
        let a = spec(0..100);
        assert_eq!(mh.signature(&a), mh.signature(&a));
        assert_eq!(mh.signature(&a).estimate_distance(&mh.signature(&a)), 0.0);
    }

    #[test]
    fn disjoint_specs_estimate_near_one() {
        let mh = MinHasher::new(128, 7);
        let a = spec(0..200);
        let b = spec(1000..1200);
        let d = mh.signature(&a).estimate_distance(&mh.signature(&b));
        assert!(d > 0.9, "disjoint sets estimated at distance {d}");
    }

    #[test]
    fn estimate_tracks_exact_distance() {
        // Overlapping ranges with known Jaccard distances.
        let mh = MinHasher::new(256, 99);
        for overlap in [50u32, 100, 150] {
            let a = spec(0..200);
            let b = spec((200 - overlap)..(400 - overlap));
            let exact = jaccard_distance(&a, &b);
            let est = mh.signature(&a).estimate_distance(&mh.signature(&b));
            // k=256 → σ ≈ 0.0625; allow 4σ.
            assert!(
                (exact - est).abs() < 0.25,
                "overlap {overlap}: exact {exact} vs est {est}"
            );
        }
    }

    #[test]
    fn union_signature_matches_rehash() {
        let mh = MinHasher::new(64, 5);
        let a = spec(0..50);
        let b = spec(25..80);
        let u = a.union(&b);
        assert_eq!(mh.signature(&a).union(&mh.signature(&b)), mh.signature(&u));
    }

    #[test]
    fn empty_spec_signature() {
        let mh = MinHasher::new(16, 0);
        let e = mh.signature(&Spec::empty());
        assert!(e.slots().iter().all(|&s| s == u64::MAX));
        assert_eq!(e.estimate_similarity(&mh.signature(&Spec::empty())), 1.0);
    }

    #[test]
    #[should_panic(expected = "different hashers")]
    fn mismatched_signature_lengths_panic() {
        let a = MinHasher::new(8, 1).signature(&spec(0..4));
        let b = MinHasher::new(16, 1).signature(&spec(0..4));
        let _ = a.estimate_similarity(&b);
    }

    #[test]
    fn lsh_shape_threshold_sanity() {
        let shape = LshShape { bands: 16, rows: 8 };
        let t = shape.threshold();
        assert!(t > 0.5 && t < 0.9, "threshold {t}");
    }

    #[test]
    fn lsh_finds_near_duplicates() {
        let mh = MinHasher::new(128, 3);
        let shape = LshShape { bands: 32, rows: 4 };
        let mut idx = LshIndex::new(shape);
        let base = spec(0..100);
        idx.insert(1, &mh.signature(&base));

        // 95% similar probe: should almost surely be a candidate.
        let probe = spec(5..105);
        let cands = idx.candidates(&mh.signature(&probe));
        assert!(cands.contains(&1), "near-duplicate missed by LSH");
    }

    #[test]
    fn lsh_filters_far_items() {
        let mh = MinHasher::new(128, 3);
        let shape = LshShape { bands: 16, rows: 8 };
        let mut idx = LshIndex::new(shape);
        for key in 0..50u64 {
            let far = spec((10_000 + 200 * key as u32)..(10_100 + 200 * key as u32));
            idx.insert(key, &mh.signature(&far));
        }
        let probe = spec(0..100);
        let cands = idx.candidates(&mh.signature(&probe));
        // Disjoint sets share bands only by hash accident.
        assert!(cands.len() <= 2, "too many far candidates: {}", cands.len());
    }

    #[test]
    fn lsh_remove_works() {
        let mh = MinHasher::new(64, 11);
        let mut idx = LshIndex::new(LshShape { bands: 16, rows: 4 });
        let s = mh.signature(&spec(0..10));
        idx.insert(7, &s);
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(7));
        assert!(!idx.remove(7));
        assert!(idx.is_empty());
        assert!(idx.candidates(&s).is_empty());
    }

    #[test]
    fn lsh_reinsert_replaces() {
        let mh = MinHasher::new(64, 11);
        let mut idx = LshIndex::new(LshShape { bands: 16, rows: 4 });
        let s1 = mh.signature(&spec(0..10));
        let s2 = mh.signature(&spec(500..510));
        idx.insert(7, &s1);
        idx.insert(7, &s2);
        assert_eq!(idx.len(), 1);
        // Old signature should no longer find key 7 (probabilistically;
        // these two sets are disjoint so bands differ).
        assert!(!idx.candidates(&s1).contains(&7) || idx.candidates(&s2).contains(&7));
        assert!(idx.candidates(&s2).contains(&7));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use landlord_core::jaccard::jaccard_distance;
    use landlord_core::spec::{PackageId, Spec};
    use proptest::prelude::*;

    fn arb_spec() -> impl Strategy<Value = Spec> {
        proptest::collection::vec(0u32..400, 1..128)
            .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn estimate_within_tolerance(a in arb_spec(), b in arb_spec()) {
            let mh = MinHasher::new(256, 1234);
            let exact = jaccard_distance(&a, &b);
            let est = mh.signature(&a).estimate_distance(&mh.signature(&b));
            // 256 slots → σ ≲ 0.0625 in the worst case; allow ~5σ.
            prop_assert!((exact - est).abs() < 0.32, "exact {} est {}", exact, est);
        }

        #[test]
        fn union_signature_equals_rehash(a in arb_spec(), b in arb_spec()) {
            let mh = MinHasher::new(96, 8);
            let direct = mh.signature(&a.union(&b));
            let merged = mh.signature(&a).union(&mh.signature(&b));
            prop_assert_eq!(direct, merged);
        }

        #[test]
        fn signature_deterministic_across_hashers_with_same_seed(a in arb_spec()) {
            let h1 = MinHasher::new(64, 77);
            let h2 = MinHasher::new(64, 77);
            prop_assert_eq!(h1.signature(&a), h2.signature(&a));
        }
    }
}
