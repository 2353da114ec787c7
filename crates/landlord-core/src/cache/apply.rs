//! The mutating side of the engine: execute a previously computed
//! [`Plan`] transactionally.
//!
//! [`ImageCache::apply`] is the only request-serving mutator. It acts
//! on the decision carried by the plan — it never re-derives the
//! hit / merge / insert choice (the `plan-purity` audit rule enforces
//! this), so every consumer (the plain request path, the
//! fault-degradation path, the persistent store) observes the exact
//! same decision it planned.

use super::plan::{Plan, PlannedOp};
use super::{ImageCache, Resident};
use crate::events::CacheEvent;
use crate::image::{Image, ImageId};
use crate::spec::Spec;
use std::sync::Arc;

/// The result of one applied request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Served by an existing image.
    Hit {
        /// The satisfying image.
        image: ImageId,
        /// Size of the image actually used.
        image_bytes: u64,
    },
    /// Merged into an existing image (rewritten in full).
    Merged {
        /// The image that absorbed the request.
        image: ImageId,
        /// Jaccard distance before the merge.
        distance: f64,
        /// Size of the merged image.
        image_bytes: u64,
    },
    /// A fresh image was created for exactly this spec.
    Inserted {
        /// The new image.
        image: ImageId,
        /// Its size.
        image_bytes: u64,
    },
}

impl Outcome {
    /// The image that ends up serving the request.
    pub fn image(&self) -> ImageId {
        match *self {
            Outcome::Hit { image, .. }
            | Outcome::Merged { image, .. }
            | Outcome::Inserted { image, .. } => image,
        }
    }

    /// Size of the image serving the request.
    pub fn image_bytes(&self) -> u64 {
        match *self {
            Outcome::Hit { image_bytes, .. }
            | Outcome::Merged { image_bytes, .. }
            | Outcome::Inserted { image_bytes, .. } => image_bytes,
        }
    }
}

impl ImageCache {
    /// Execute `plan` for `spec`: the only mutator that serves
    /// requests. Exactly one of hit/merge/insert happens, possibly
    /// followed by evictions.
    ///
    /// The plan must come from [`ImageCache::plan`] on the same,
    /// settled cache state (that is what [`ImageCache::request`]
    /// guarantees). A stale plan whose target image has since vanished
    /// degrades to a fresh insert rather than corrupting state.
    ///
    /// With the `paranoid` cargo feature enabled (debug builds only),
    /// every apply re-verifies [`ImageCache::check_invariants`] on
    /// exit.
    pub fn apply(&mut self, spec: &Spec, plan: &Plan) -> Outcome {
        let span = self.obs.as_ref().map(|o| o.apply_span());
        let outcome = self.apply_inner(spec, plan);
        drop(span);
        // High-water mark (`raise`, not `set`): a max-fold is
        // order-independent, so shards sharing a registry stay
        // deterministic under any thread interleaving.
        if let Some(obs) = &self.obs {
            obs.resident_images
                .raise(u64::try_from(self.images.len()).unwrap_or(u64::MAX));
            // Flush evictor-internal counters (ghost hits, sample
            // draws) as deltas; counters fold by sum, so shards
            // sharing a registry stay exact.
            let counters = self.evictor.counters();
            let ghost = counters.ghost_hits - self.evictor_reported.ghost_hits;
            let draws = counters.sample_draws - self.evictor_reported.sample_draws;
            if ghost > 0 {
                obs.evict_ghost_hits.add(ghost);
            }
            if draws > 0 {
                obs.evict_sample_draws.add(draws);
            }
            self.evictor_reported = counters;
        }
        #[cfg(all(feature = "paranoid", debug_assertions))]
        self.check_invariants();
        outcome
    }

    fn apply_inner(&mut self, spec: &Spec, plan: &Plan) -> Outcome {
        self.clock += 1;
        let now = self.clock;
        let requested_bytes = plan.requested_bytes;
        self.ledger.begin_request(requested_bytes);

        match plan.op {
            PlannedOp::Hit { image } => {
                if let Some(r) = self.images.get_mut(&image.0) {
                    r.image.last_used = now;
                    r.image.use_count += 1;
                    self.evictor.on_touch(&r.image);
                    let image_bytes = r.image.bytes;
                    self.ledger.count_hit();
                    self.ledger.serve(requested_bytes, image_bytes);
                    self.emit(CacheEvent::Hit {
                        image,
                        requested_bytes,
                        image_bytes,
                    });
                    return Outcome::Hit { image, image_bytes };
                }
                debug_assert!(false, "stale plan: hit image {image} not cached");
                self.do_insert(spec, requested_bytes, now)
            }
            PlannedOp::Merge { image, distance } => {
                if let Some(outcome) = self.merge_into(image, spec, distance, requested_bytes, now)
                {
                    self.evict_to_limit(image);
                    return outcome;
                }
                self.do_insert(spec, requested_bytes, now)
            }
            PlannedOp::Insert => self.do_insert(spec, requested_bytes, now),
        }
    }

    /// Build a fresh image for exactly `spec` (Algorithm 1's insert
    /// arm). The caller has already advanced the clock and accounted
    /// the request.
    pub(super) fn do_insert(&mut self, spec: &Spec, requested_bytes: u64, now: u64) -> Outcome {
        let id = ImageId(self.next_id);
        self.next_id += 1;
        self.ledger.write(requested_bytes);
        self.ledger.count_insert();
        self.ledger.serve(requested_bytes, requested_bytes);
        self.admit_image(Image::new(id, spec.clone(), requested_bytes, now));
        self.emit(CacheEvent::Insert {
            image: id,
            bytes: requested_bytes,
        });
        self.evict_to_limit(id);
        Outcome::Inserted {
            image: id,
            image_bytes: requested_bytes,
        }
    }

    /// Replace image `id` with `merge(s, j)` in place, exactly as the
    /// plan decided. Returns `None` when `id` is not cached (stale
    /// plan; the caller then falls back to insert).
    fn merge_into(
        &mut self,
        id: ImageId,
        spec: &Spec,
        distance: f64,
        requested_bytes: u64,
        now: u64,
    ) -> Option<Outcome> {
        let split_threshold = self.config.split_threshold;
        let sizes = Arc::clone(&self.sizes);
        let Resident { image: img, slot } = self.images.get_mut(&id.0)?;

        // Account the packages newly introduced by the request.
        let added = spec.difference(&img.spec);
        let old_bytes = img.bytes;
        let new_spec = img.spec.union(spec);
        let new_bytes = sizes.spec_bytes(&new_spec);
        self.postings.grow(*slot, &added, new_bytes);
        img.spec = new_spec;
        img.bytes = new_bytes;
        img.last_used = now;
        img.use_count = img.use_count.saturating_add(1);
        img.merge_count = img.merge_count.saturating_add(1);
        img.push_constituent(spec);
        let wants_split = split_threshold
            .is_some_and(|threshold| img.merge_count >= threshold && img.constituents.len() > 1);
        if wants_split {
            self.pending_split = Some(id);
        }
        self.evictor.on_touch(img);
        self.candidate_index.on_merge(id.0, spec);
        self.refcounts
            .add_spec(&added, self.sizes.as_ref(), &mut self.ledger);

        self.ledger.grow_total(new_bytes - old_bytes);
        // The merged image is written out in its entirety (§VI: "Each
        // time a merge occurs, the resulting image must be written out
        // in its entirety").
        self.ledger.write(new_bytes);
        self.ledger.count_merge();
        self.ledger.serve(requested_bytes, new_bytes);

        self.emit(CacheEvent::Merge {
            image: id,
            distance_milli: (distance * 1000.0).round() as u16,
            old_bytes,
            new_bytes,
        });
        Some(Outcome::Merged {
            image: id,
            distance,
            image_bytes: new_bytes,
        })
    }

    /// Evict until within the byte limit. The image serving the current
    /// request (`protect`) is never evicted — a job's image must
    /// survive at least until the job launches.
    ///
    /// Victims come from [`super::Evictor::select_victim`]: selection
    /// commits here, inside the apply transaction, which is what keeps
    /// `plan()` pure even for stateful (queue-rotating, sampling)
    /// policies.
    pub(super) fn evict_to_limit(&mut self, protect: ImageId) {
        let mut chain: u64 = 0;
        while self.ledger.stats().total_bytes > self.config.limit_bytes {
            let Some(victim) = self.evictor.select_victim(Some(protect)) else {
                break;
            };
            self.evict(victim);
            chain += 1;
        }
        if let Some(obs) = &self.obs {
            obs.evict_chain.record(chain);
        }
    }
}
