//! The candidate-enumeration seam: how merge candidates are found
//! before the exact distance check, behind the [`CandidateIndex`]
//! trait.
//!
//! [`ExactScan`] keeps no index: the engine then finds every image
//! within α exactly, by counting each image's overlap with the request
//! on its posting table (the paper's simulated configuration).
//! [`MinHashLshIndex`] keeps a MinHash signature per image in a banded
//! LSH table and proposes only probable near neighbours — the scaling
//! trade the paper describes for very large specification collections.
//! Either way the engine confirms every proposal with the exact
//! distance, counting the proposals' overlaps on the posting table, so
//! the index can only *miss* merges, never create wrong ones.

use crate::image::Image;
use crate::minhash::{LshIndex, LshShape, MinHasher, Signature};
use crate::policy::CandidateStrategy;
use crate::spec::Spec;
use crate::util::FxHashMap;

/// Enumerates merge candidates for a request spec. The engine notifies
/// the index of every image lifecycle event so it can mirror the cache
/// contents.
pub trait CandidateIndex: Send {
    /// The strategy this index implements.
    fn strategy(&self) -> CandidateStrategy;
    /// A new image with this spec entered the cache.
    fn on_insert(&mut self, id: u64, spec: &Spec);
    /// Image `id` absorbed `request` (its spec grew by union).
    fn on_merge(&mut self, id: u64, request: &Spec);
    /// Image `id` left the cache.
    fn on_remove(&mut self, id: u64);
    /// Candidate image ids for `spec`, or `None` meaning "no index:
    /// find the exact candidate set" (by counting every image's overlap
    /// on the engine's posting table).
    fn candidates(&self, spec: &Spec) -> Option<Vec<u64>>;
    /// Verify the index against the resident images (each exactly
    /// once); panics on inconsistency.
    fn check(&self, images: &[&Image]);
}

/// No index at all: the engine finds the exact candidate set itself.
pub(crate) struct ExactScan;

impl CandidateIndex for ExactScan {
    fn strategy(&self) -> CandidateStrategy {
        CandidateStrategy::ExactScan
    }
    fn on_insert(&mut self, _id: u64, _spec: &Spec) {}
    fn on_merge(&mut self, _id: u64, _request: &Spec) {}
    fn on_remove(&mut self, _id: u64) {}
    fn candidates(&self, _spec: &Spec) -> Option<Vec<u64>> {
        None
    }
    fn check(&self, _images: &[&Image]) {}
}

/// MinHash signatures in a banded LSH table.
pub(crate) struct MinHashLshIndex {
    strategy: CandidateStrategy,
    minhash: MinHasher,
    lsh: LshIndex,
    signatures: FxHashMap<u64, Signature>,
}

impl MinHashLshIndex {
    pub(crate) fn new(bands: usize, rows: usize, seed: u64) -> Self {
        MinHashLshIndex {
            strategy: CandidateStrategy::MinHashLsh { bands, rows },
            minhash: MinHasher::new(bands * rows, seed),
            lsh: LshIndex::new(LshShape { bands, rows }),
            signatures: FxHashMap::default(),
        }
    }
}

impl CandidateIndex for MinHashLshIndex {
    fn strategy(&self) -> CandidateStrategy {
        self.strategy
    }

    fn on_insert(&mut self, id: u64, spec: &Spec) {
        let sig = self.minhash.signature(spec);
        self.lsh.insert(id, &sig);
        self.signatures.insert(id, sig);
    }

    fn on_merge(&mut self, id: u64, request: &Spec) {
        // Signature union is exact for MinHash: min over the united
        // member set equals the elementwise min of the two signatures,
        // so merged images never need re-hashing.
        let req_sig = self.minhash.signature(request);
        let merged = match self.signatures.get(&id) {
            Some(old) => old.union(&req_sig),
            None => req_sig,
        };
        self.lsh.insert(id, &merged);
        self.signatures.insert(id, merged);
    }

    fn on_remove(&mut self, id: u64) {
        self.lsh.remove(id);
        self.signatures.remove(&id);
    }

    fn candidates(&self, spec: &Spec) -> Option<Vec<u64>> {
        let sig = self.minhash.signature(spec);
        Some(self.lsh.candidates(&sig))
    }

    fn check(&self, images: &[&Image]) {
        assert_eq!(self.lsh.len(), images.len(), "lsh key count out of sync");
        assert_eq!(
            self.signatures.len(),
            images.len(),
            "signature count out of sync"
        );
        for img in images {
            assert!(
                self.lsh.contains(img.id.0),
                "image {} missing from lsh",
                img.id
            );
            let stored = self.signatures.get(&img.id.0);
            let fresh = self.minhash.signature(&img.spec);
            assert_eq!(
                stored,
                Some(&fresh),
                "stale or missing signature for image {}",
                img.id
            );
            assert!(
                self.lsh.candidates(&fresh).contains(&img.id.0),
                "image {} is not its own lsh candidate",
                img.id
            );
        }
    }
}

/// Build the candidate index for a strategy.
pub(crate) fn make_candidate_index(
    strategy: CandidateStrategy,
    minhash_seed: u64,
) -> Box<dyn CandidateIndex> {
    match strategy {
        CandidateStrategy::ExactScan => Box::new(ExactScan),
        CandidateStrategy::MinHashLsh { bands, rows } => {
            Box::new(MinHashLshIndex::new(bands, rows, minhash_seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PackageId;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    #[test]
    fn exact_scan_scans_everything() {
        let idx = ExactScan;
        assert_eq!(idx.candidates(&spec(&[1, 2])), None);
    }

    #[test]
    fn lsh_finds_near_duplicates_and_forgets_removed_keys() {
        let mut idx = MinHashLshIndex::new(32, 4, 42);
        let base: Vec<u32> = (0..100).collect();
        idx.on_insert(7, &spec(&base));
        let mut close = base.clone();
        close[0] = 1000;
        let cands = idx.candidates(&spec(&close)).unwrap();
        assert!(cands.contains(&7), "99% similar spec must be proposed");
        idx.on_remove(7);
        assert!(!idx.candidates(&spec(&close)).unwrap().contains(&7));
    }

    #[test]
    fn merge_unions_signatures() {
        let mut idx = MinHashLshIndex::new(32, 4, 42);
        let a: Vec<u32> = (0..60).collect();
        idx.on_insert(1, &spec(&a));
        let b: Vec<u32> = (40..100).collect();
        idx.on_merge(1, &spec(&b));
        // The merged signature equals a fresh hash of the union.
        let union: Vec<u32> = (0..100).collect();
        let fresh = idx.minhash.signature(&spec(&union));
        assert_eq!(idx.signatures.get(&1), Some(&fresh));
    }
}
