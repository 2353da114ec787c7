//! The mutating side of the engine: execute a previously computed
//! [`Plan`] transactionally.
//!
//! [`ImageCache::apply`] is the only request-serving mutator. It acts
//! on the decision carried by the plan — it never re-derives the
//! hit / merge / insert choice (the `plan-purity` audit rule enforces
//! this), so every consumer (the plain request path, the
//! fault-degradation path, the persistent store) observes the exact
//! same decision it planned.
//!
//! A merge reads the packages the request adds to the image from the
//! posting table, not from the image's spec, and grows the image's
//! bytes by theirs alone; the merged spec is the sorted union of the
//! image and those packages. Setting their bits tells which of them no
//! other image held, and so the growth of the unique bytes: one
//! `SizeModel::ids_bytes` call sums the added bytes and one the newly
//! unique ones (see `Postings::grow`). The delta, the unique packages
//! and the union are built without data-dependent branches (see
//! `Postings::missing` and `Spec::union_ids`).

use super::plan::{Plan, PlannedOp};
use super::ImageCache;
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
                .raise(u64::try_from(self.len()).unwrap_or(u64::MAX));
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

        // The plan names its target by id; resolve it to a slot once.
        let target = match plan.op {
            PlannedOp::Hit { image } | PlannedOp::Merge { image, .. } => self.slot_of(image),
            PlannedOp::Insert => None,
        };
        match plan.op {
            PlannedOp::Hit { image } => {
                let hit = target.and_then(|slot| {
                    Some((slot, self.residents.get_mut(slot as usize)?.as_mut()?))
                });
                if let Some((slot, img)) = hit {
                    img.last_used = now;
                    img.use_count += 1;
                    self.evictor.on_touch(slot, img);
                    let image_bytes = img.bytes;
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
                let merged = target
                    .and_then(|slot| self.merge_into(slot, spec, distance, requested_bytes, now));
                if let Some(outcome) = merged {
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

    /// Replace the image in `slot` with `merge(s, j)` in place, exactly
    /// as the plan decided. Returns `None` when the slot is free (stale
    /// plan; the caller then falls back to insert).
    fn merge_into(
        &mut self,
        slot: u32,
        spec: &Spec,
        distance: f64,
        requested_bytes: u64,
        now: u64,
    ) -> Option<Outcome> {
        let split_threshold = self.config.split_threshold;
        let sizes = Arc::clone(&self.sizes);
        let img = self.residents.get_mut(slot as usize)?.as_mut()?;
        let id = img.id;

        // `added` is disjoint from the image, so the bytes add up.
        let added = self.postings.missing(slot, spec);
        let grown = self.postings.grow(slot, &added, sizes.as_ref());
        let old_bytes = img.bytes;
        let new_bytes = old_bytes.saturating_add(grown.bytes);
        img.spec = img.spec.union_ids(&added);
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
        self.evictor.on_touch(slot, img);

        self.ledger.add_unique(grown.unique);
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
