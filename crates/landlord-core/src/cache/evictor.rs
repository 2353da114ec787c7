//! The eviction seam: a general eviction engine behind the [`Evictor`]
//! trait.
//!
//! The seam splits into two halves. The **lifecycle half**
//! (`on_insert`/`on_touch`/`on_remove`/`note_eviction`) notifies the
//! evictor of every image event. The **selection half** answers "who
//! goes next": [`Evictor::select_victim`] may advance internal state
//! (queue rotation, seeded sample draws, a deferred sort), while
//! [`Evictor::peek_victim`] is a side-effect-free preview guaranteed to
//! name the same victim the next `select_victim` would.
//!
//! Every lifecycle callback gets the image's *slot* beside the image: a
//! dense `u32` the caller assigns to each resident image and reuses
//! once the image has left (the engine passes its posting-table slot).
//! Each evictor keeps its per-image state in a vector indexed by slot,
//! never in a map keyed by image id; victims are still named by
//! [`ImageId`].
//!
//! Three families implement the seam:
//!
//! * **Exact LRU** ([`LruEvictor`], the paper's policy): an intrusive
//!   doubly-linked list over slots in `(last_used, id)` order. Insert
//!   and touch append at the tail in O(1); when a caller passes the
//!   same `now` twice, the append walks back over the same-tick entries
//!   so the lower id stays first. An image older than the tail (bulk
//!   admission in arbitrary order: checkpoint restore, the persistent
//!   store's rebuild) is appended too, and marks the list unsorted; the
//!   next selection sorts and relinks it once, O(n log n). Selection
//!   reads the head.
//! * **Queue rotation** ([`S3FifoEvictor`]): S3-FIFO's static
//!   small/main/ghost FIFOs. Touches are O(1) frequency bumps; no
//!   ordered index exists to maintain. Selection rotates the queues
//!   (promotions, frequency decay) and is therefore stateful.
//! * **Sampling** ([`SampledEvictor`]: lfu, largest-first,
//!   cost-density, gdsf, lhd-sample): no order is kept. Touches rewrite
//!   the slot's metadata in O(1); selection draws K occupied slots from
//!   a seeded [`SplitMix64`] stream (threaded from
//!   [`CacheConfig::eviction_seed`], never ambient randomness) and
//!   evicts the least score among them. A [`Scorer`] is the policy:
//!   [`Priority`] ranks by use count, bytes, last use or GDSF's stored
//!   priority; [`Lhd`] by predicted hit density per byte. A preview
//!   replays the draws on a copy of the 8-byte stream state.
//!
//! Every implementation is `Clone`-able behind
//! [`Evictor::clone_box`], which is what makes transactional planning
//! (the persistent store's WAL evict lists) and S3-FIFO's previews
//! possible without committing state advances.

use super::config::CacheConfig;
use crate::bitset::BitSet;
use crate::image::{Image, ImageId};
use crate::policy::EvictionPolicy;
use crate::spec::Spec;
use crate::util::FxHasher;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Monotonic counters a stateful evictor exposes for observability.
/// The engine flushes deltas into `landlord-obs` after every apply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictorCounters {
    /// S3-FIFO: inserts whose identity was found in the ghost queue
    /// (admitted straight to the main queue).
    pub ghost_hits: u64,
    /// The sampled evictors: individual candidate draws performed by
    /// `select_victim` calls (never by previews).
    pub sample_draws: u64,
}

/// Tracks the cached images and answers "who goes next". The engine
/// notifies the evictor of every image lifecycle event, with the
/// image's slot (see the module docs); selection may be stateful and
/// randomized (seeded), so committing a victim goes through
/// `&mut self`.
pub trait Evictor: Send {
    /// The policy this evictor implements.
    fn policy(&self) -> EvictionPolicy;
    /// A new image entered the cache in `slot`.
    fn on_insert(&mut self, slot: u32, img: &Image);
    /// The image in `slot` changed its ordering-relevant fields (hit or
    /// merge already applied to `img`).
    fn on_touch(&mut self, slot: u32, img: &Image);
    /// The image in `slot` left the cache; the slot may be reused.
    fn on_remove(&mut self, slot: u32, img: &Image);
    /// The image in `slot` is about to be evicted *by the byte limit*
    /// (still cached). Lets aging policies (GDSF) advance their clock
    /// and ghost queues (S3-FIFO) remember the identity.
    fn note_eviction(&mut self, _slot: u32, _img: &Image) {}
    /// Choose and commit the next victim, never `protect`, advancing
    /// any queue/sampling state. `None` when nothing (else) is cached.
    fn select_victim(&mut self, protect: Option<ImageId>) -> Option<ImageId>;
    /// Preview the victim the next [`Evictor::select_victim`] call
    /// would return, without advancing state. The sampled evictors
    /// replay the next draws on a copy of their stream state; S3-FIFO,
    /// whose selection rotates its queues, selects on a clone of itself.
    fn peek_victim(&self, protect: Option<ImageId>) -> Option<ImageId>;
    /// Number of indexed images.
    fn len(&self) -> usize;
    /// Whether no images are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Snapshot of this evictor's observability counters.
    fn counters(&self) -> EvictorCounters {
        EvictorCounters::default()
    }
    /// Clone the full evictor state. Used for S3-FIFO's previews and
    /// for planning eviction chains transactionally (the persistent store
    /// plans on a clone and feeds the live evictor only acked events).
    fn clone_box(&self) -> Box<dyn Evictor>;
    /// Verify internal consistency against the resident images, given
    /// as `(slot, image)` each exactly once; panics on inconsistency.
    fn check(&self, images: &[(u32, &Image)]);
}

impl Clone for Box<dyn Evictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The entry for `slot` in a slot-indexed vector, growing the vector
/// with defaults to reach it.
fn at_slot<T: Default>(entries: &mut Vec<T>, slot: u32) -> &mut T {
    let i = slot as usize;
    if i >= entries.len() {
        entries.resize_with(i + 1, T::default);
    }
    &mut entries[i]
}

/// The end of an [`LruEvictor`] list: no slot.
const NIL: u32 = u32::MAX;

/// One slot's node of the LRU list.
#[derive(Debug, Clone, Copy)]
struct LruNode {
    last_used: u64,
    id: ImageId,
    prev: u32,
    next: u32,
    /// Whether the slot's image is in the list.
    linked: bool,
}

impl Default for LruNode {
    fn default() -> Self {
        LruNode {
            last_used: 0,
            id: ImageId(0),
            prev: NIL,
            next: NIL,
            linked: false,
        }
    }
}

impl LruNode {
    /// The list's order: least recently used first, ties to the lower id.
    fn key(&self) -> (u64, ImageId) {
        (self.last_used, self.id)
    }
}

/// Exact LRU: an intrusive doubly-linked list over slots, head first in
/// `(last_used, id)` order, so the victim is the head (or the next node
/// when the head is protected).
#[derive(Clone)]
struct LruEvictor {
    nodes: Vec<LruNode>,
    head: u32,
    tail: u32,
    len: usize,
    /// False once an image older than the tail was appended; the next
    /// [`Evictor::select_victim`] sorts and relinks the list.
    sorted: bool,
    /// Link work done: one per node walked back over, and per sort one
    /// per node relinked and per comparison. Bounds the cost of bulk
    /// admission in tests without timing it.
    steps: u64,
}

impl LruEvictor {
    fn new() -> Self {
        LruEvictor {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            sorted: true,
            steps: 0,
        }
    }

    fn node(&self, slot: u32) -> &LruNode {
        &self.nodes[slot as usize]
    }

    /// The linked nodes, head first.
    fn walk(&self) -> impl Iterator<Item = (u32, &LruNode)> {
        let mut at = self.head;
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let slot = at;
                at = self.node(slot).next;
                (slot, self.node(slot))
            })
        })
    }

    /// Link `slot` right after `after`, or at the head for [`NIL`].
    fn link_after(&mut self, slot: u32, after: u32) {
        let next = if after == NIL {
            self.head
        } else {
            self.node(after).next
        };
        let node = &mut self.nodes[slot as usize];
        (node.prev, node.next, node.linked) = (after, next, true);
        match after {
            NIL => self.head = slot,
            _ => self.nodes[after as usize].next = slot,
        }
        match next {
            NIL => self.tail = slot,
            _ => self.nodes[next as usize].prev = slot,
        }
        self.len += 1;
    }

    /// Take `slot` out of the list, if it is in it.
    fn unlink(&mut self, slot: u32) {
        let Some(&LruNode {
            prev,
            next,
            linked: true,
            ..
        }) = self.nodes.get(slot as usize)
        else {
            return;
        };
        match prev {
            NIL => self.head = next,
            _ => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.nodes[next as usize].prev = prev,
        }
        self.nodes[slot as usize] = LruNode::default();
        self.len -= 1;
        if self.len == 0 {
            self.sorted = true;
        }
    }

    /// (Re)link the image in `slot` at its place: after the tail, or,
    /// when the tail holds the same tick and a higher id, after walking
    /// back over such entries. An image older than the tail is appended
    /// and leaves the list unsorted.
    fn place(&mut self, slot: u32, img: &Image) {
        self.unlink(slot);
        let node = at_slot(&mut self.nodes, slot);
        (node.last_used, node.id) = (img.last_used, img.id);
        let mut after = self.tail;
        if after != NIL && self.node(after).last_used > img.last_used {
            self.sorted = false;
        }
        if self.sorted {
            // In a sorted list every entry above the key shares its tick.
            while after != NIL && self.node(after).key() > (img.last_used, img.id) {
                self.steps += 1;
                after = self.node(after).prev;
            }
        }
        self.link_after(slot, after);
    }

    /// Sort an unsorted list by `(last_used, id)` and relink it.
    fn sort(&mut self) {
        if self.sorted {
            return;
        }
        let mut order: Vec<(u64, ImageId, u32)> = self
            .walk()
            .map(|(slot, n)| (n.last_used, n.id, slot))
            .collect();
        let mut steps = order.len() as u64;
        order.sort_unstable_by(|a, b| {
            steps += 1;
            a.cmp(b)
        });
        self.steps += steps;
        (self.head, self.tail, self.len) = (NIL, NIL, 0);
        for (.., slot) in order {
            self.link_after(slot, self.tail);
        }
        self.sorted = true;
    }
}

impl Evictor for LruEvictor {
    fn policy(&self) -> EvictionPolicy {
        EvictionPolicy::Lru
    }

    fn on_insert(&mut self, slot: u32, img: &Image) {
        self.place(slot, img);
    }

    fn on_touch(&mut self, slot: u32, img: &Image) {
        self.place(slot, img);
    }

    fn on_remove(&mut self, slot: u32, _img: &Image) {
        self.unlink(slot);
    }

    fn select_victim(&mut self, protect: Option<ImageId>) -> Option<ImageId> {
        self.sort();
        self.peek_victim(protect)
    }

    /// The head, or the next node when the head is protected; on an
    /// unsorted list, the least `(last_used, id)` by a scan.
    fn peek_victim(&self, protect: Option<ImageId>) -> Option<ImageId> {
        let mut rest = self.walk().filter(|(_, n)| Some(n.id) != protect);
        if self.sorted {
            rest.next().map(|(_, n)| n.id)
        } else {
            rest.map(|(_, n)| n.key()).min().map(|(_, id)| id)
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clone_box(&self) -> Box<dyn Evictor> {
        Box::new(self.clone())
    }

    fn check(&self, images: &[(u32, &Image)]) {
        assert_eq!(self.len, images.len(), "lru list length");
        let mut prev = NIL;
        let mut walked = 0usize;
        for (slot, n) in self.walk() {
            assert!(
                n.linked,
                "lru slot {slot} in the list but not marked linked"
            );
            assert_eq!(n.prev, prev, "lru back link of slot {slot}");
            if self.sorted && prev != NIL {
                assert!(
                    self.node(prev).key() < n.key(),
                    "lru list out of (last_used, id) order at slot {slot}"
                );
            }
            prev = slot;
            walked += 1;
        }
        assert_eq!(self.tail, prev, "lru tail");
        assert_eq!(walked, self.len, "lru walk length");
        for &(slot, img) in images {
            let n = self.nodes.get(slot as usize);
            assert!(
                n.is_some_and(|n| n.linked && n.key() == (img.last_used, img.id)),
                "lru node of image {} in slot {slot} missing or stale",
                img.id
            );
        }
        let brute = images.iter().map(|(_, img)| (img.last_used, img.id)).min();
        assert_eq!(
            self.peek_victim(None),
            brute.map(|(_, id)| id),
            "victim disagrees with scan"
        );
    }
}
/// Deterministic fingerprint of an image's identity (its spec) for the
/// S3-FIFO ghost queue. Image ids are never reused, so a re-built image
/// for the same spec can only be recognized by content.
fn spec_fingerprint(spec: &Spec) -> u64 {
    let mut h = FxHasher::default();
    spec.hash(&mut h);
    h.finish()
}

/// Ghost-membership slot count. Fingerprints map to `fp % GHOST_SLOTS`
/// bits of a [`BitSet`]; collisions make the ghost test one-sided
/// (false positives admit an image to main early — harmless and still
/// deterministic), while per-slot refcounts keep clearing exact.
const GHOST_SLOTS: usize = 4096;

/// The ghost queue never shrinks below this many entries, so small
/// caches still get re-admission history.
const GHOST_FLOOR: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum S3Queue {
    Small,
    Main,
}

#[derive(Debug, Clone, Copy)]
struct S3Meta {
    /// The image in the slot: a queue occurrence naming another id is
    /// stale (its image left, and the slot was reused).
    id: ImageId,
    queue: S3Queue,
    /// Touches since admission, capped at 3 (the S3-FIFO paper's
    /// two-bit counter).
    freq: u8,
    /// Bytes as last reported, so queue byte totals stay exact across
    /// merges that grow an image in place.
    bytes: u64,
}

/// S3-FIFO (SOSP'23): small/main/ghost static queues.
///
/// Inserts land in the *small* probationary queue unless their
/// fingerprint is remembered by the *ghost* queue of recently evicted
/// identities, in which case they go straight to *main* (a ghost hit).
/// When the small queue's bytes exceed ~10% of the cache budget,
/// victims come from small: entries touched at least twice are
/// promoted to main instead of dying. Main evicts FIFO with one
/// second chance per positive frequency count. Touches never reorder
/// anything — O(1), no ordered-index maintenance.
///
/// Queue occurrences are `(slot, id)` pairs. Removals that bypass
/// selection (splits, administrative deletes) leave their occurrence in
/// place; an occurrence whose id is not its slot's live image — the
/// image left, and the slot may hold a new one — is dropped lazily when
/// it reaches the queue head.
#[derive(Clone)]
struct S3FifoEvictor {
    /// Byte budget of the small queue (a tenth of the cache limit).
    small_target: u64,
    small: VecDeque<(u32, ImageId)>,
    main: VecDeque<(u32, ImageId)>,
    /// Each slot's live image's state; `None` for a free slot.
    meta: Vec<Option<S3Meta>>,
    /// Live images.
    live: usize,
    small_bytes: u64,
    main_bytes: u64,
    /// Evicted-identity fingerprints in eviction order.
    ghost: VecDeque<u64>,
    /// The length the ghost was last trimmed to: the live count (at
    /// least [`GHOST_FLOOR`]) at the last push. Removals lower the live
    /// count without trimming, so the ghost may exceed the current one.
    ghost_cap: usize,
    /// Slot occupancy for O(1) ghost membership tests.
    ghost_bits: BitSet,
    /// Per-slot occupancy counts so collisions clear exactly.
    ghost_refs: Vec<u32>,
    counters: EvictorCounters,
}

impl S3FifoEvictor {
    fn new(limit_bytes: u64) -> Self {
        S3FifoEvictor {
            small_target: (limit_bytes / 10).max(1),
            small: VecDeque::new(),
            main: VecDeque::new(),
            meta: Vec::new(),
            live: 0,
            small_bytes: 0,
            main_bytes: 0,
            ghost: VecDeque::new(),
            ghost_cap: GHOST_FLOOR,
            ghost_bits: BitSet::new(GHOST_SLOTS),
            ghost_refs: vec![0; GHOST_SLOTS],
            counters: EvictorCounters::default(),
        }
    }

    fn ghost_contains(&self, fp: u64) -> bool {
        self.ghost_bits.contains((fp % GHOST_SLOTS as u64) as usize)
    }

    fn ghost_push(&mut self, fp: u64) {
        let slot = (fp % GHOST_SLOTS as u64) as usize;
        if self.ghost_refs[slot] == 0 {
            self.ghost_bits.insert(slot);
        }
        self.ghost_refs[slot] += 1;
        self.ghost.push_back(fp);
        // The ghost remembers about as many identities as there are
        // live images (the classic sizing: ghost ≈ main, in entries).
        let cap = self.live.max(GHOST_FLOOR);
        self.ghost_cap = cap;
        while self.ghost.len() > cap {
            let Some(old) = self.ghost.pop_front() else {
                break;
            };
            let slot = (old % GHOST_SLOTS as u64) as usize;
            self.ghost_refs[slot] -= 1;
            if self.ghost_refs[slot] == 0 {
                self.ghost_bits.remove(slot);
            }
        }
    }

    /// The state of `slot` if it still holds image `id`.
    fn live_meta(&mut self, slot: u32, id: ImageId) -> Option<&mut S3Meta> {
        self.meta
            .get_mut(slot as usize)?
            .as_mut()
            .filter(|m| m.id == id)
    }

    fn queue_bytes_mut(&mut self, q: S3Queue) -> &mut u64 {
        match q {
            S3Queue::Small => &mut self.small_bytes,
            S3Queue::Main => &mut self.main_bytes,
        }
    }
}

impl Evictor for S3FifoEvictor {
    fn policy(&self) -> EvictionPolicy {
        EvictionPolicy::S3Fifo
    }

    fn on_insert(&mut self, slot: u32, img: &Image) {
        let fp = spec_fingerprint(&img.spec);
        let queue = if self.ghost_contains(fp) {
            self.counters.ghost_hits += 1;
            S3Queue::Main
        } else {
            S3Queue::Small
        };
        match queue {
            S3Queue::Small => self.small.push_back((slot, img.id)),
            S3Queue::Main => self.main.push_back((slot, img.id)),
        }
        *self.queue_bytes_mut(queue) += img.bytes;
        let prev = at_slot(&mut self.meta, slot).replace(S3Meta {
            id: img.id,
            queue,
            freq: 0,
            bytes: img.bytes,
        });
        debug_assert!(prev.is_none(), "slot {slot} taken at insert of {}", img.id);
        self.live += 1;
    }

    fn on_touch(&mut self, slot: u32, img: &Image) {
        let Some(m) = self.live_meta(slot, img.id) else {
            return;
        };
        m.freq = (m.freq + 1).min(3);
        if m.bytes != img.bytes {
            // A merge rewrote the image in place at a new size.
            let (queue, old) = (m.queue, m.bytes);
            m.bytes = img.bytes;
            let total = self.queue_bytes_mut(queue);
            *total = *total - old + img.bytes;
        }
    }

    fn on_remove(&mut self, slot: u32, img: &Image) {
        let gone = self
            .meta
            .get_mut(slot as usize)
            .and_then(|m| m.take_if(|m| m.id == img.id));
        if let Some(m) = gone {
            *self.queue_bytes_mut(m.queue) -= m.bytes;
            self.live -= 1;
        }
    }

    fn note_eviction(&mut self, _slot: u32, img: &Image) {
        self.ghost_push(spec_fingerprint(&img.spec));
    }

    fn select_victim(&mut self, protect: Option<ImageId>) -> Option<ImageId> {
        // `protect` occurrences are stashed aside (not requeued) for
        // the duration of one selection, so every loop iteration makes
        // progress: it drops a stale occurrence, promotes a small entry
        // (at most once each), decrements a positive freq (at most 3
        // each), or returns a victim. The budget is a safety net only.
        let mut stashed: Option<(S3Queue, (u32, ImageId))> = None;
        let mut budget = (self.small.len() + self.main.len() + 1) * 8;
        let victim = loop {
            if budget == 0 {
                break None;
            }
            budget -= 1;
            let from_small = if self.small_bytes >= self.small_target && !self.small.is_empty() {
                true
            } else if !self.main.is_empty() {
                false
            } else if !self.small.is_empty() {
                true
            } else {
                break None;
            };
            if from_small {
                let Some((slot, id)) = self.small.pop_front() else {
                    break None;
                };
                let Some(m) = self.live_meta(slot, id) else {
                    continue; // stale occurrence of a removed image
                };
                if m.queue != S3Queue::Small {
                    continue;
                }
                if m.freq > 1 {
                    // Touched while on probation: promote to main.
                    m.queue = S3Queue::Main;
                    let bytes = m.bytes;
                    self.small_bytes -= bytes;
                    self.main_bytes += bytes;
                    self.main.push_back((slot, id));
                    continue;
                }
                if Some(id) == protect {
                    stashed = Some((S3Queue::Small, (slot, id)));
                    // Its bytes still count toward small_bytes; if it
                    // is the only small entry the next iteration sees
                    // an empty small queue and falls through to main.
                    continue;
                }
                break Some(id);
            } else {
                let Some((slot, id)) = self.main.pop_front() else {
                    break None;
                };
                let Some(m) = self.live_meta(slot, id) else {
                    continue;
                };
                if m.queue != S3Queue::Main {
                    continue;
                }
                if Some(id) == protect {
                    stashed = Some((S3Queue::Main, (slot, id)));
                    continue;
                }
                if m.freq > 0 {
                    // Second chance: decay and recirculate.
                    m.freq -= 1;
                    self.main.push_back((slot, id));
                    continue;
                }
                break Some(id);
            }
        };
        // Restore the protected occurrence where it was (head-most).
        if let Some((queue, occurrence)) = stashed {
            match queue {
                S3Queue::Small => self.small.push_front(occurrence),
                S3Queue::Main => self.main.push_front(occurrence),
            }
        }
        if victim.is_none() && budget == 0 {
            // Safety net (unreachable by the progress argument above):
            // fall back to the minimum live id so the engine's
            // eviction loop can always make progress.
            return self
                .meta
                .iter()
                .flatten()
                .map(|m| m.id)
                .filter(|&id| Some(id) != protect)
                .min();
        }
        victim
    }

    fn peek_victim(&self, protect: Option<ImageId>) -> Option<ImageId> {
        let mut preview = self.clone();
        preview.select_victim(protect)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn counters(&self) -> EvictorCounters {
        self.counters
    }

    fn clone_box(&self) -> Box<dyn Evictor> {
        Box::new(self.clone())
    }

    fn check(&self, images: &[(u32, &Image)]) {
        assert_eq!(self.live, images.len(), "s3-fifo live count");
        assert_eq!(
            self.meta.iter().flatten().count(),
            images.len(),
            "s3-fifo meta size"
        );
        let mut small_bytes = 0u64;
        let mut main_bytes = 0u64;
        for &(slot, img) in images {
            let m = self.meta.get(slot as usize).copied().flatten();
            assert!(
                m.is_some_and(|m| m.id == img.id),
                "image {} missing from s3-fifo meta of slot {slot}",
                img.id
            );
            let Some(m) = m else { continue };
            assert_eq!(m.bytes, img.bytes, "s3-fifo stale bytes for {}", img.id);
            match m.queue {
                S3Queue::Small => small_bytes += m.bytes,
                S3Queue::Main => main_bytes += m.bytes,
            }
        }
        assert_eq!(self.small_bytes, small_bytes, "s3-fifo small_bytes");
        assert_eq!(self.main_bytes, main_bytes, "s3-fifo main_bytes");
        // Every live image occurs exactly once, in the queue its meta
        // names; stale occurrences (removed images) are allowed.
        let mut occurrences = vec![(0usize, 0usize); self.meta.len()];
        let is_live = |&(slot, id): &(u32, ImageId)| {
            self.meta
                .get(slot as usize)
                .copied()
                .flatten()
                .is_some_and(|m| m.id == id)
        };
        for &(slot, _) in self.small.iter().filter(|o| is_live(o)) {
            occurrences[slot as usize].0 += 1;
        }
        for &(slot, _) in self.main.iter().filter(|o| is_live(o)) {
            occurrences[slot as usize].1 += 1;
        }
        for (m, &found) in self.meta.iter().zip(&occurrences) {
            let Some(m) = m else { continue };
            let want = match m.queue {
                S3Queue::Small => (1, 0),
                S3Queue::Main => (0, 1),
            };
            assert_eq!(
                found, want,
                "image {} occurrences disagree with its queue tag {:?}",
                m.id, m.queue
            );
        }
        // Ghost refcounts and bits are exact functions of the deque.
        let mut refs = vec![0u32; GHOST_SLOTS];
        for &fp in &self.ghost {
            refs[(fp % GHOST_SLOTS as u64) as usize] += 1;
        }
        assert_eq!(self.ghost_refs, refs, "s3-fifo ghost refcounts");
        for (slot, &count) in refs.iter().enumerate() {
            assert_eq!(
                self.ghost_bits.contains(slot),
                count > 0,
                "s3-fifo ghost bit {slot} disagrees with refcount"
            );
        }
        assert!(
            self.ghost.len() <= self.ghost_cap,
            "s3-fifo ghost over capacity"
        );
    }
}
/// SplitMix64: the standard 64-bit mixing PRNG. Tiny, `Copy`, and a
/// pure function of its state — exactly what a replayable evictor
/// needs: a preview draws from a copy.
#[derive(Debug, Clone, Copy)]
pub(super) struct SplitMix64(pub(super) u64);

impl SplitMix64 {
    pub(super) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Slots the priority policies draw per selection: the smallest K in
/// {8, 16, 32, 64} whose `ext-evict-sweep --scale full` best-α rows
/// stay within the exact order's range over seeds 1–10, in both cache
/// regimes (EXPERIMENTS.md, "Sample size").
pub(super) const PRIORITY_SAMPLES: usize = 32;

/// A sampled image's place in eviction order, `(score, tiebreak, id)`.
type Rank = (f64, u64, ImageId);

/// The order of two ranks: score by `total_cmp`, then tiebreak, then id.
fn rank_cmp(a: &Rank, b: &Rank) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// A [`SampledEvictor`]'s policy: the state it keeps per image and the
/// score it ranks sampled images by. The least `(score, id)` is evicted.
trait Scorer: Clone + Send + 'static {
    /// Per-image state, kept in the image's slot.
    type Meta: Copy + Send;
    /// Slots drawn per selection.
    const SAMPLES: usize;
    /// The policy this scorer implements.
    fn policy(&self) -> EvictionPolicy;
    /// The state of an image entering the cache.
    fn admit(&mut self, img: &Image) -> Self::Meta;
    /// Refresh `meta` after a hit or merge already applied to `img`.
    fn touch(&mut self, meta: &mut Self::Meta, img: &Image);
    /// The image with `meta` is about to be evicted by the byte limit.
    fn evicted(&mut self, meta: &Self::Meta);
    /// The image's `(score, tiebreak)` right now.
    fn score(&self, meta: &Self::Meta) -> (f64, u64);
    /// Panic unless every resident `(meta, image)` pair is consistent.
    fn check(&self, resident: &[(Self::Meta, &Image)]);
}

#[derive(Clone, Copy)]
struct Entry<M> {
    id: ImageId,
    /// Index in the sampling vector (swap-remove bookkeeping).
    pos: usize,
    meta: M,
}

/// The entry of `slot` if it holds image `id`.
fn live<M>(entries: &mut [Option<Entry<M>>], slot: u32, id: ImageId) -> Option<&mut Entry<M>> {
    entries
        .get_mut(slot as usize)?
        .as_mut()
        .filter(|e| e.id == id)
}

/// Victim by sampling, modeled on the `size_lru` exemplar: the least
/// `(score, id)` among `S::SAMPLES` slots drawn from a [`SplitMix64`]
/// stream seeded by [`CacheConfig::eviction_seed`], so selection is a
/// deterministic function of (seed, event history). No order is
/// maintained: touches rewrite one slot's metadata in O(1). A preview
/// replays the draws on a copy of the stream state and changes nothing.
#[derive(Clone)]
struct SampledEvictor<S: Scorer> {
    scorer: S,
    rng: SplitMix64,
    /// Occupied slots, swap-removed on removal, for O(1) draws.
    slots: Vec<u32>,
    /// Each slot's image; `None` for a free slot.
    entries: Vec<Option<Entry<S::Meta>>>,
    counters: EvictorCounters,
}

impl<S: Scorer> SampledEvictor<S> {
    fn new(scorer: S, seed: u64) -> Self {
        SampledEvictor {
            scorer,
            rng: SplitMix64(seed),
            slots: Vec::new(),
            entries: Vec::new(),
            counters: EvictorCounters::default(),
        }
    }

    fn rank(&self, e: &Entry<S::Meta>) -> Rank {
        let (score, tiebreak) = self.scorer.score(&e.meta);
        (score, tiebreak, e.id)
    }

    /// The least rank, never `protect`'s, over the next `S::SAMPLES`
    /// draws of the stream, and the stream state after them. When every
    /// draw lands on `protect` (tiny cache), a deterministic full scan
    /// stands in, so eviction makes progress whenever a victim exists.
    fn draw(&self, protect: Option<ImageId>) -> (Option<ImageId>, SplitMix64) {
        let mut rng = self.rng;
        let mut best: Option<Rank> = None;
        for _ in 0..S::SAMPLES {
            // The draw is already reduced modulo the vector length, so
            // the narrowing cast cannot lose bits.
            let draw = rng.next() % self.slots.len() as u64;
            let Some(Some(e)) = self.entries.get(self.slots[draw as usize] as usize) else {
                continue;
            };
            if Some(e.id) == protect {
                continue;
            }
            let candidate = self.rank(e);
            if best.is_none_or(|b| rank_cmp(&candidate, &b).is_lt()) {
                best = Some(candidate);
            }
        }
        if best.is_none() {
            best = self
                .entries
                .iter()
                .flatten()
                .filter(|e| Some(e.id) != protect)
                .map(|e| self.rank(e))
                .min_by(rank_cmp);
        }
        (best.map(|(.., id)| id), rng)
    }
}

impl<S: Scorer> Evictor for SampledEvictor<S> {
    fn policy(&self) -> EvictionPolicy {
        self.scorer.policy()
    }

    fn on_insert(&mut self, slot: u32, img: &Image) {
        let meta = self.scorer.admit(img);
        let prev = at_slot(&mut self.entries, slot).replace(Entry {
            id: img.id,
            pos: self.slots.len(),
            meta,
        });
        debug_assert!(prev.is_none(), "slot {slot} taken at insert of {}", img.id);
        self.slots.push(slot);
    }

    fn on_touch(&mut self, slot: u32, img: &Image) {
        if let Some(e) = live(&mut self.entries, slot, img.id) {
            self.scorer.touch(&mut e.meta, img);
        }
    }

    fn on_remove(&mut self, slot: u32, img: &Image) {
        let gone = self
            .entries
            .get_mut(slot as usize)
            .and_then(|e| e.take_if(|e| e.id == img.id));
        let Some(e) = gone else {
            return;
        };
        self.slots.swap_remove(e.pos);
        if let Some(&moved) = self.slots.get(e.pos) {
            if let Some(Some(m)) = self.entries.get_mut(moved as usize) {
                m.pos = e.pos;
            }
        }
    }

    fn note_eviction(&mut self, slot: u32, img: &Image) {
        if let Some(e) = live(&mut self.entries, slot, img.id) {
            self.scorer.evicted(&e.meta);
        }
    }

    fn select_victim(&mut self, protect: Option<ImageId>) -> Option<ImageId> {
        if self.slots.is_empty() {
            return None;
        }
        self.counters.sample_draws += S::SAMPLES as u64;
        let (victim, rng) = self.draw(protect);
        self.rng = rng;
        victim
    }

    fn peek_victim(&self, protect: Option<ImageId>) -> Option<ImageId> {
        if self.slots.is_empty() {
            return None;
        }
        self.draw(protect).0
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn counters(&self) -> EvictorCounters {
        self.counters
    }

    fn clone_box(&self) -> Box<dyn Evictor> {
        Box::new(self.clone())
    }

    fn check(&self, images: &[(u32, &Image)]) {
        let policy = self.policy();
        assert_eq!(
            self.entries.iter().flatten().count(),
            images.len(),
            "{policy:?} entry count"
        );
        assert_eq!(
            self.slots.len(),
            images.len(),
            "{policy:?} sampling-vector size"
        );
        let mut resident = Vec::with_capacity(images.len());
        for &(slot, img) in images {
            let e = self.entries.get(slot as usize).copied().flatten();
            let e = e.filter(|e| e.id == img.id);
            assert!(
                e.is_some(),
                "image {} missing from {policy:?} slot {slot}",
                img.id
            );
            let Some(e) = e else { continue };
            assert_eq!(
                self.slots.get(e.pos),
                Some(&slot),
                "{policy:?} sampling position for {} out of sync",
                img.id
            );
            resident.push((e.meta, img));
        }
        self.scorer.check(&resident);
    }
}

/// What the priority policies know of an image.
#[derive(Debug, Clone, Copy)]
struct Usage {
    use_count: u64,
    bytes: u64,
    last_used: u64,
    /// GDSF's priority `H = L + use_count / bytes`, with the inflation
    /// `L` current at the last insert or touch.
    gdsf: f64,
}

fn density(use_count: u64, bytes: u64) -> f64 {
    use_count as f64 / bytes.max(1) as f64
}

/// The priority policies, each a function of an image's [`Usage`]:
/// `lfu` evicts the fewest uses, `largest-first` the most bytes,
/// `cost-density` the fewest uses per byte and `gdsf` the least stored
/// `H`; all but `largest-first` break ties toward the least recent use.
/// Evicting a victim raises GDSF's inflation `L` to its `H`, so the
/// priorities of untouched images decay *relative to* new arrivals:
/// size-aware like cost-density, aging like LRU.
#[derive(Clone)]
struct Priority {
    policy: EvictionPolicy,
    inflation: f64,
}

impl Priority {
    fn usage(&self, img: &Image) -> Usage {
        Usage {
            use_count: img.use_count,
            bytes: img.bytes,
            last_used: img.last_used,
            gdsf: self.inflation + density(img.use_count, img.bytes),
        }
    }
}

impl Scorer for Priority {
    type Meta = Usage;
    const SAMPLES: usize = PRIORITY_SAMPLES;

    fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    fn admit(&mut self, img: &Image) -> Usage {
        self.usage(img)
    }

    fn touch(&mut self, usage: &mut Usage, img: &Image) {
        *usage = self.usage(img);
    }

    fn evicted(&mut self, usage: &Usage) {
        if usage.gdsf > self.inflation {
            self.inflation = usage.gdsf;
        }
    }

    fn score(&self, u: &Usage) -> (f64, u64) {
        match self.policy {
            EvictionPolicy::Lfu => (u.use_count as f64, u.last_used),
            EvictionPolicy::LargestFirst => (-(u.bytes as f64), 0),
            EvictionPolicy::CostDensity => (density(u.use_count, u.bytes), u.last_used),
            // Gdsf, the last of the four policies `make_evictor` gives a `Priority`.
            _ => (u.gdsf, u.last_used),
        }
    }

    fn check(&self, resident: &[(Usage, &Image)]) {
        for (u, img) in resident {
            assert_eq!(
                (u.use_count, u.bytes, u.last_used),
                (img.use_count, img.bytes, img.last_used),
                "stale usage of image {}",
                img.id
            );
            // `L` only rises, so no stored `H` exceeds today's.
            assert!(
                u.gdsf <= self.inflation + density(u.use_count, u.bytes),
                "gdsf priority of image {} above the current inflation",
                img.id
            );
        }
    }
}

/// Number of reuse-gap classes LHD conditions its histograms on.
const LHD_CLASSES: usize = 16;
/// Log2 age buckets per class (covers the full u64 tick range).
const LHD_AGE_BUCKETS: usize = 64;
/// Candidates drawn per selection.
const LHD_SAMPLES: usize = 16;
/// Density model refresh period, in evictor ticks.
const LHD_RECONFIGURE_EVERY: u64 = 1024;
/// Histogram decay multiplier applied at each refresh, so the model
/// tracks drifting workloads instead of averaging over all history.
const LHD_DECAY: f64 = 0.5;

/// Log2 bucket of an age/gap (0 for 0, else `floor(log2) + 1`, capped).
fn log2_bucket(v: u64, cap: usize) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(cap - 1)
}

#[derive(Debug, Clone, Copy)]
struct LhdMeta {
    /// Evictor tick of the last insert/touch.
    last_access: u64,
    /// Reuse-gap class at that access.
    class: usize,
    bytes: u64,
}

/// Per-class age histograms and the density curve derived from them.
#[derive(Clone)]
struct LhdClassStats {
    hits: [f64; LHD_AGE_BUCKETS],
    evicts: [f64; LHD_AGE_BUCKETS],
    densities: [f64; LHD_AGE_BUCKETS],
}

impl LhdClassStats {
    fn new() -> Self {
        LhdClassStats {
            hits: [0.0; LHD_AGE_BUCKETS],
            evicts: [0.0; LHD_AGE_BUCKETS],
            densities: [0.0; LHD_AGE_BUCKETS],
        }
    }

    /// Recompute the hit-density curve (expected hits per tick of
    /// remaining lifetime as a function of age), then decay the
    /// histograms. Standard LHD estimator: scanning from the oldest
    /// age down, `density(a) = Σ_{t≥a} hits(t) / Σ_{t≥a} lifetime(t)`
    /// where each age step's surviving events contribute one tick of
    /// lifetime.
    fn reconfigure(&mut self) {
        let mut hits_above = 0.0;
        let mut events_above = 0.0;
        let mut lifetime = 0.0;
        for a in (0..LHD_AGE_BUCKETS).rev() {
            hits_above += self.hits[a];
            events_above += self.hits[a] + self.evicts[a];
            lifetime += events_above;
            self.densities[a] = if lifetime > 0.0 {
                hits_above / lifetime
            } else {
                0.0
            };
            self.hits[a] *= LHD_DECAY;
            self.evicts[a] *= LHD_DECAY;
        }
    }
}

/// Sampled LHD (hit density): learn, per reuse-gap class, how likely
/// an image of a given age is to hit again versus be evicted; score an
/// image by its predicted hits per byte. Touches are O(1) (a histogram
/// bump and a metadata update).
#[derive(Clone)]
struct Lhd {
    /// Internal event clock: advances on insert and touch.
    tick: u64,
    next_reconfigure: u64,
    classes: Vec<LhdClassStats>,
}

impl Lhd {
    fn new() -> Self {
        Lhd {
            tick: 0,
            next_reconfigure: LHD_RECONFIGURE_EVERY,
            classes: vec![LhdClassStats::new(); LHD_CLASSES],
        }
    }

    fn advance_tick(&mut self) {
        self.tick += 1;
        if self.tick >= self.next_reconfigure {
            for class in &mut self.classes {
                class.reconfigure();
            }
            self.next_reconfigure = self.tick + LHD_RECONFIGURE_EVERY;
        }
    }

    fn age_bucket(&self, m: &LhdMeta) -> usize {
        log2_bucket(self.tick.saturating_sub(m.last_access), LHD_AGE_BUCKETS)
    }
}

impl Scorer for Lhd {
    type Meta = LhdMeta;
    const SAMPLES: usize = LHD_SAMPLES;

    fn policy(&self) -> EvictionPolicy {
        EvictionPolicy::LhdSample
    }

    fn admit(&mut self, img: &Image) -> LhdMeta {
        self.advance_tick();
        LhdMeta {
            last_access: self.tick,
            class: 0,
            bytes: img.bytes,
        }
    }

    fn touch(&mut self, m: &mut LhdMeta, img: &Image) {
        self.advance_tick();
        let gap = self.tick.saturating_sub(m.last_access);
        let (class, age) = (m.class, log2_bucket(gap, LHD_AGE_BUCKETS));
        m.class = log2_bucket(gap, LHD_CLASSES);
        m.last_access = self.tick;
        m.bytes = img.bytes;
        self.classes[class].hits[age] += 1.0;
    }

    fn evicted(&mut self, m: &LhdMeta) {
        let age = self.age_bucket(m);
        self.classes[m.class].evicts[age] += 1.0;
    }

    /// Predicted hit density per byte right now.
    fn score(&self, m: &LhdMeta) -> (f64, u64) {
        let density = self.classes[m.class].densities[self.age_bucket(m)];
        (density / m.bytes.max(1) as f64, 0)
    }

    fn check(&self, resident: &[(LhdMeta, &Image)]) {
        for (m, img) in resident {
            assert_eq!(m.bytes, img.bytes, "lhd stale bytes for {}", img.id);
            assert!(
                m.last_access <= self.tick,
                "lhd image {} accessed in the future",
                img.id
            );
            assert!(m.class < LHD_CLASSES, "lhd class out of range");
        }
        for class in &self.classes {
            for a in 0..LHD_AGE_BUCKETS {
                assert!(
                    class.hits[a] >= 0.0 && class.hits[a].is_finite(),
                    "lhd hit histogram corrupt"
                );
                assert!(
                    class.evicts[a] >= 0.0 && class.evicts[a].is_finite(),
                    "lhd evict histogram corrupt"
                );
            }
        }
    }
}

/// Build the evictor for a cache configuration. The config (not just
/// the policy) is needed because stateful evictors size themselves
/// from the byte budget (S3-FIFO's small-queue target) and seed their
/// sampling stream (`eviction_seed`). Public so external stores (the
/// CLI's persistent cache) can drive the same policies over their own
/// image populations.
pub fn make_evictor(config: &CacheConfig) -> Box<dyn Evictor> {
    let (policy, seed) = (config.eviction, config.eviction_seed);
    match policy {
        EvictionPolicy::Lru => Box::new(LruEvictor::new()),
        EvictionPolicy::Lfu
        | EvictionPolicy::LargestFirst
        | EvictionPolicy::CostDensity
        | EvictionPolicy::Gdsf => Box::new(SampledEvictor::new(
            Priority {
                policy,
                inflation: 0.0,
            },
            seed,
        )),
        EvictionPolicy::S3Fifo => Box::new(S3FifoEvictor::new(config.limit_bytes)),
        EvictionPolicy::LhdSample => Box::new(SampledEvictor::new(Lhd::new(), seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PackageId, Spec};

    fn img(id: u64, bytes: u64, last_used: u64, use_count: u64) -> Image {
        let mut i = Image::new(
            ImageId(id),
            Spec::from_ids([PackageId(id as u32)]),
            bytes,
            last_used,
        );
        i.use_count = use_count;
        i
    }

    /// Lifecycle calls with each image in the slot numbered like its id.
    trait BySlot {
        fn insert(&mut self, img: &Image);
        fn touch(&mut self, img: &Image);
        fn remove(&mut self, img: &Image);
        fn evicted(&mut self, img: &Image);
    }

    impl BySlot for Box<dyn Evictor> {
        fn insert(&mut self, img: &Image) {
            self.on_insert(img.id.0 as u32, img);
        }
        fn touch(&mut self, img: &Image) {
            self.on_touch(img.id.0 as u32, img);
        }
        fn remove(&mut self, img: &Image) {
            self.on_remove(img.id.0 as u32, img);
        }
        fn evicted(&mut self, img: &Image) {
            self.note_eviction(img.id.0 as u32, img);
        }
    }

    fn evictor(policy: EvictionPolicy) -> Box<dyn Evictor> {
        let config = CacheConfig {
            eviction: policy,
            limit_bytes: 1000,
            ..CacheConfig::default()
        };
        make_evictor(&config)
    }

    #[test]
    fn lru_picks_oldest_and_respects_protect() {
        let mut e = evictor(EvictionPolicy::Lru);
        e.insert(&img(1, 10, 5, 1));
        e.insert(&img(2, 10, 3, 1));
        e.insert(&img(3, 10, 9, 1));
        assert_eq!(e.peek_victim(None), Some(ImageId(2)));
        assert_eq!(e.peek_victim(Some(ImageId(2))), Some(ImageId(1)));
    }

    #[test]
    fn lru_ties_break_by_id() {
        let mut e = evictor(EvictionPolicy::Lru);
        e.insert(&img(7, 10, 4, 1));
        e.insert(&img(3, 10, 4, 1));
        assert_eq!(e.peek_victim(None), Some(ImageId(3)));
    }

    #[test]
    fn touch_moves_image_to_the_back() {
        let mut e = evictor(EvictionPolicy::Lru);
        e.insert(&img(1, 10, 1, 1));
        e.insert(&img(2, 10, 2, 1));
        e.touch(&img(1, 10, 8, 2));
        assert_eq!(e.peek_victim(None), Some(ImageId(2)));
    }

    /// The sampling-vector positions the next selection of a sampled
    /// evictor draws from stream state `rng`, over `n` occupied slots.
    fn draws(mut rng: SplitMix64, n: usize) -> Vec<usize> {
        (0..PRIORITY_SAMPLES)
            .map(|_| (rng.next() % n as u64) as usize)
            .collect()
    }

    /// Whether the next selection from `rng` draws each of `n` slots.
    fn draws_all(rng: SplitMix64, n: usize) -> bool {
        let drawn = draws(rng, n);
        (0..n).all(|pos| drawn.contains(&pos))
    }

    #[test]
    fn largest_first_prefers_big_then_small_id() {
        let mut e = evictor(EvictionPolicy::LargestFirst);
        e.insert(&img(1, 10, 1, 1));
        e.insert(&img(2, 30, 2, 1));
        e.insert(&img(3, 30, 3, 1));
        assert!(draws_all(SplitMix64(0), 3), "seed 0 draws all three");
        assert_eq!(e.peek_victim(None), Some(ImageId(2)), "ties → smallest id");
        // The biggest image is evicted only when drawn: the victim is
        // the biggest image in the drawn slots.
        let drawn = draws(SplitMix64(0), 200);
        let missed = (0..200).find(|pos| !drawn.contains(pos)).unwrap();
        let mut e = evictor(EvictionPolicy::LargestFirst);
        for id in 0..200 {
            let bytes = if id == missed as u64 {
                10_000
            } else {
                100 + id
            };
            e.insert(&img(id, bytes, id, 1));
        }
        let want = drawn.iter().max().map(|&pos| ImageId(pos as u64));
        assert_eq!(e.select_victim(None), want);
    }

    #[test]
    fn cost_density_evicts_fewest_uses_per_byte() {
        let mut e = evictor(EvictionPolicy::CostDensity);
        e.insert(&img(1, 100, 1, 1)); // 0.01 uses/byte
        e.insert(&img(2, 10, 2, 5)); // 0.5 uses/byte
        assert!(draws_all(SplitMix64(0), 2), "seed 0 draws both");
        assert_eq!(e.peek_victim(None), Some(ImageId(1)));
    }

    #[test]
    fn gdsf_inflation_ages_out_old_high_frequency_images() {
        let mut e = evictor(EvictionPolicy::Gdsf);
        // Old image, many uses: H = 0 + 10/10 = 1.0.
        let old = img(1, 10, 1, 10);
        e.insert(&old);
        // Cheap victim: H = 0 + 1/100 = 0.01. Evicting it raises L.
        let cheap = img(2, 100, 2, 1);
        e.insert(&cheap);
        assert!(draws_all(SplitMix64(0), 2), "seed 0 draws both");
        assert_eq!(e.select_victim(None), Some(ImageId(2)));
        e.evicted(&cheap);
        e.remove(&cheap);
        // After many evictions the inflation exceeds 1.0 and freshly
        // inserted low-frequency images outrank the stale hot one as
        // soon as a selection draws both resident images.
        for k in 0..200u64 {
            let v = img(10 + k, 1, 3 + k, 2);
            e.insert(&v);
            let victim = e.select_victim(None).unwrap();
            let vi = if victim == v.id {
                v.clone()
            } else {
                old.clone()
            };
            e.evicted(&vi);
            e.remove(&vi);
            if victim == old.id {
                return; // the hot-but-stale image aged out
            }
        }
        panic!("stale image never aged out under GDSF");
    }

    #[test]
    fn remove_forgets_the_image() {
        let mut e = evictor(EvictionPolicy::Lru);
        let a = img(1, 10, 1, 1);
        e.insert(&a);
        e.remove(&a);
        assert_eq!(e.len(), 0);
        assert_eq!(e.peek_victim(None), None);
    }

    #[test]
    fn indexed_select_equals_peek_and_commits_nothing() {
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::LargestFirst,
            EvictionPolicy::CostDensity,
            EvictionPolicy::Gdsf,
        ] {
            let mut e = evictor(policy);
            for id in 0..10 {
                e.insert(&img(id, 10 + id, id, 1 + id % 3));
            }
            let peeked = e.peek_victim(None);
            assert_eq!(e.peek_victim(None), peeked, "{policy:?} peek mutated");
            assert_eq!(e.counters().sample_draws, 0, "{policy:?} peek drew");
            assert_eq!(e.select_victim(None), peeked, "{policy:?}");
            if policy == EvictionPolicy::Lru {
                assert_eq!(e.peek_victim(None), peeked, "lru select mutated");
                continue;
            }
            // A sampled selection commits its draws and nothing else:
            // the victim is the least rank among the drawn slots.
            assert_eq!(e.counters().sample_draws, PRIORITY_SAMPLES as u64);
            let mut rng = SplitMix64(0);
            for _ in 0..PRIORITY_SAMPLES {
                rng.next();
            }
            let rank = |id: u64| {
                let i = img(id, 10 + id, id, 1 + id % 3);
                let p = Priority {
                    policy,
                    inflation: 0.0,
                };
                let (score, tiebreak) = p.score(&p.usage(&i));
                (score, tiebreak, i.id)
            };
            let want = draws(rng, 10)
                .into_iter()
                .map(|pos| rank(pos as u64))
                .min_by(rank_cmp)
                .map(|(.., id)| id);
            assert_eq!(e.peek_victim(None), want, "{policy:?} next draws");
        }
    }

    #[test]
    fn s3_fifo_evicts_untouched_probation_first() {
        // small_target = 100; fill small past it with one-hit wonders.
        let mut e = evictor(EvictionPolicy::S3Fifo);
        e.insert(&img(1, 60, 1, 1));
        e.insert(&img(2, 60, 2, 1));
        // FIFO within the small queue: the oldest untouched entry dies.
        assert_eq!(e.select_victim(None), Some(ImageId(1)));
    }

    #[test]
    fn s3_fifo_promotes_touched_probation_entries() {
        let mut e = evictor(EvictionPolicy::S3Fifo);
        e.insert(&img(1, 60, 1, 1));
        e.insert(&img(2, 60, 2, 1));
        e.insert(&img(3, 60, 3, 1));
        // Touch image 1 twice: freq 2 > 1 → promoted instead of evicted.
        e.touch(&img(1, 60, 4, 2));
        e.touch(&img(1, 60, 5, 3));
        // Selection promotes 1 to main (small stays over its target)
        // and evicts the oldest untouched probation entry instead.
        assert_eq!(e.select_victim(None), Some(ImageId(2)));
    }

    #[test]
    fn s3_fifo_ghost_hit_readmits_to_main() {
        let mut e = evictor(EvictionPolicy::S3Fifo);
        let a = img(1, 60, 1, 1);
        e.insert(&a);
        e.insert(&img(2, 60, 2, 1));
        assert_eq!(e.select_victim(None), Some(ImageId(1)));
        e.evicted(&a); // engine evicts: identity enters the ghost
        e.remove(&a);
        assert_eq!(e.counters().ghost_hits, 0);
        // Same spec returns under a new id: ghost hit → straight to main.
        let reborn = img(1, 60, 5, 1); // same id→same spec fingerprint
        let reborn = Image {
            id: ImageId(9),
            ..reborn
        };
        e.insert(&reborn);
        assert_eq!(e.counters().ghost_hits, 1);
        // Image 2 (still on probation, untouched) dies before the
        // re-admitted image even though it arrived earlier.
        assert_eq!(e.select_victim(Some(ImageId(9))), Some(ImageId(2)));
    }

    #[test]
    fn s3_fifo_protect_is_never_selected_and_survives_in_place() {
        let mut e = evictor(EvictionPolicy::S3Fifo);
        let only = img(1, 200, 1, 1);
        e.insert(&only);
        assert_eq!(e.select_victim(Some(ImageId(1))), None);
        assert_eq!(e.len(), 1, "protected image still tracked");
        e.insert(&img(2, 200, 2, 1));
        assert_eq!(e.select_victim(Some(ImageId(1))), Some(ImageId(2)));
    }

    #[test]
    fn s3_fifo_select_matches_peek() {
        let mut e = evictor(EvictionPolicy::S3Fifo);
        for id in 0..20 {
            e.insert(&img(id, 15, id, 1));
            if id % 3 == 0 {
                e.touch(&img(id, 15, id + 1, 2));
            }
        }
        for _ in 0..10 {
            let peeked = e.peek_victim(None);
            let selected = e.select_victim(None);
            assert_eq!(selected, peeked);
            let Some(v) = selected else { break };
            let vi = img(v.0, 15, 0, 1);
            e.evicted(&vi);
            e.remove(&vi);
        }
    }

    #[test]
    fn lhd_same_seed_same_decisions() {
        let drive = |seed: u64| {
            let config = CacheConfig {
                eviction: EvictionPolicy::LhdSample,
                eviction_seed: seed,
                ..CacheConfig::default()
            };
            let mut e = make_evictor(&config);
            let mut victims = Vec::new();
            for id in 0..50 {
                e.insert(&img(id, 10 + id % 7, id, 1));
            }
            for id in (0..50).step_by(3) {
                e.touch(&img(id, 10 + id % 7, 60 + id, 2));
            }
            for _ in 0..20 {
                let Some(v) = e.select_victim(None) else {
                    break;
                };
                victims.push(v);
                let vi = img(v.0, 10 + v.0 % 7, 0, 1);
                e.evicted(&vi);
                e.remove(&vi);
            }
            victims
        };
        assert_eq!(drive(7), drive(7), "same seed must replay identically");
        assert_eq!(drive(7).len(), 20);
    }

    #[test]
    fn lhd_select_matches_peek_then_advances_the_stream() {
        let mut e = evictor(EvictionPolicy::LhdSample);
        for id in 0..30 {
            e.insert(&img(id, 10, id, 1));
        }
        let peeked = e.peek_victim(None);
        assert_eq!(e.select_victim(None), peeked, "peek previews next select");
        assert_eq!(
            e.counters().sample_draws,
            LHD_SAMPLES as u64,
            "peek must not burn sample draws"
        );
    }

    #[test]
    fn lhd_protect_fallback_still_finds_the_other_image() {
        let mut e = evictor(EvictionPolicy::LhdSample);
        e.insert(&img(1, 10, 1, 1));
        assert_eq!(e.select_victim(Some(ImageId(1))), None);
        e.insert(&img(2, 10, 2, 1));
        // Even if every draw sampled the protected image, the fallback
        // scan must surface the only other candidate.
        assert_eq!(e.select_victim(Some(ImageId(1))), Some(ImageId(2)));
    }

    #[test]
    fn lhd_learns_to_keep_hot_images() {
        let config = CacheConfig {
            eviction: EvictionPolicy::LhdSample,
            ..CacheConfig::default()
        };
        let mut e = make_evictor(&config);
        // Two long-lived images: 1 is re-touched constantly, 2 never.
        e.insert(&img(1, 10, 1, 1));
        e.insert(&img(2, 10, 2, 1));
        // Cold churn teaches the model: short-lived images get
        // inserted, evicted (never hit), feeding the evict histogram;
        // image 1's touches feed the hit histogram.
        for k in 0..3000u64 {
            let cold = img(100 + k, 10, 3 + k, 1);
            e.insert(&cold);
            e.touch(&img(1, 10, 4 + k, 2 + k));
            e.evicted(&cold);
            e.remove(&cold);
        }
        // After reconfigures, the never-touched image 2 must score
        // below the hot image 1.
        let mut kills = 0;
        for _ in 0..5 {
            if e.select_victim(None) == Some(ImageId(2)) {
                kills += 1;
            }
        }
        assert!(
            kills >= 4,
            "hot image evicted over cold one ({kills}/5 picks hit the cold image)"
        );
    }

    #[test]
    fn log2_bucket_is_monotone_and_capped() {
        assert_eq!(log2_bucket(0, 64), 0);
        assert_eq!(log2_bucket(1, 64), 1);
        assert_eq!(log2_bucket(2, 64), 2);
        assert_eq!(log2_bucket(3, 64), 2);
        assert_eq!(log2_bucket(u64::MAX, 64), 63);
        assert_eq!(log2_bucket(u64::MAX, 16), 15);
    }

    /// A slot freed by an administrative removal and reused by a new
    /// image keeps the old image's queue occurrence; popping it must
    /// drop it as stale, not evict (or revive) the slot's new image.
    #[test]
    fn s3_fifo_drops_a_stale_occurrence_whose_slot_holds_a_new_image() {
        let mut e = evictor(EvictionPolicy::S3Fifo);
        let (old, other, reborn) = (img(1, 60, 1, 1), img(2, 60, 2, 1), img(3, 60, 3, 1));
        e.on_insert(0, &old);
        e.on_insert(1, &other);
        e.on_remove(0, &old); // a split: no eviction, the occurrence stays
        e.on_insert(0, &reborn);
        e.check(&[(1, &other), (0, &reborn)]);
        // Small is over its 100-byte target: (0, 1) is stale and
        // dropped, so the oldest live probation entry, image 2, dies.
        assert_eq!(e.peek_victim(None), Some(ImageId(2)));
        assert_eq!(e.select_victim(None), Some(ImageId(2)));
        e.note_eviction(1, &other);
        e.on_remove(1, &other);
        e.check(&[(0, &reborn)]);
        assert_eq!(e.select_victim(None), Some(ImageId(3)));
    }

    /// Same-tick entries stay in id order whichever arrives first, and
    /// a touch at the tail's tick walks back past higher ids only.
    #[test]
    fn lru_same_tick_touches_keep_the_lower_id_first() {
        let mut e = evictor(EvictionPolicy::Lru);
        e.insert(&img(5, 10, 5, 1));
        for id in [4, 9, 6] {
            e.insert(&img(id, 10, 7, 1));
        }
        assert_eq!(e.peek_victim(None), Some(ImageId(5)));
        e.touch(&img(5, 10, 7, 2));
        assert_eq!(e.peek_victim(None), Some(ImageId(4)));
        let order: Vec<ImageId> = std::iter::from_fn(|| {
            let v = e.select_victim(None)?;
            let gone = img(v.0, 10, 7, 1);
            e.evicted(&gone);
            e.remove(&gone);
            Some(v)
        })
        .collect();
        assert_eq!(order, [4, 5, 6, 9].map(ImageId));
    }

    /// Admitting images from the oldest tick downwards (a restore in id
    /// order of a cache whose recency runs the other way) costs one
    /// sort at the next selection, not a walk per admission.
    #[test]
    fn lru_bulk_admission_out_of_order_sorts_once() {
        const N: u64 = 100_000;
        let mut e = LruEvictor::new();
        for id in 0..N {
            e.on_insert(id as u32, &img(id, 10, N - id, 1));
        }
        assert!(!e.sorted);
        assert_eq!(
            e.peek_victim(None),
            Some(ImageId(N - 1)),
            "scan while unsorted"
        );
        assert_eq!(e.select_victim(None), Some(ImageId(N - 1)));
        assert!(e.sorted);
        assert_eq!(e.select_victim(Some(ImageId(N - 1))), Some(ImageId(N - 2)));
        let log2 = u64::from(u64::BITS - N.leading_zeros());
        assert!(
            e.steps <= 4 * N * log2,
            "{} link steps for {N} admissions: not O(n log n)",
            e.steps
        );
        // Touches on the sorted list append in O(1).
        let before = e.steps;
        for id in 0..1000 {
            e.on_touch(id as u32, &img(id, 10, N + 1 + id, 2));
        }
        assert_eq!(e.steps, before);
        assert_eq!(e.peek_victim(None), Some(ImageId(N - 1)));
    }
}
