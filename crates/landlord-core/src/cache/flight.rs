//! Single-flight coalescing for concurrent identical (and
//! superset-satisfiable) requests.
//!
//! When many submitters ask for the same spec at once, planning each
//! request independently wastes work: the first apply would turn every
//! follower into a plain hit anyway, and under merging the followers
//! could even pick *different* merge targets than the leader is about
//! to create. [`SingleFlight`] deduplicates at the frontend: the first
//! requester of a spec becomes the **leader** and actually plans and
//! applies; any request arriving while that flight is open whose spec
//! is a *subset* of the leader's spec (identical specs included —
//! the leader's resulting image satisfies every subset) becomes a
//! **waiter** and blocks until the leader publishes its [`Outcome`].
//!
//! Flights are lazy. Opening one records only the leader's spec and a
//! token in the map; the first waiter to join allocates the [`Flight`]
//! (the result cell it parks on), and later waiters share it. A leader
//! nobody joins — nearly every leader outside a burst of duplicates —
//! allocates nothing, and its completion wakes no one.
//!
//! Lock protocol (covered by the `lock-order` audit analysis):
//!
//! * `SingleFlight.inflight` (the map) and `Flight.state` (one flight's
//!   result cell) are never held at the same time. `begin` touches only
//!   the map, creating a flight there if it is the first waiter;
//!   publishing first removes the map entry, taking its flight if one
//!   was created, then locks that flight to store the result and
//!   notify. A waiter that joined did so under the map lock before the
//!   removal, so the leader always sees the flight it must publish to.
//! * Waiters hold only their flight's `state` lock, released atomically
//!   while parked on the condvar — a waiter never blocks the map.
//!
//! Panic safety: [`LeaderGuard`] publishes [`FlightState::Abandoned`]
//! on drop if the leader never completed, so waiters of a panicking
//! leader wake with `None` and can retry as their own leaders instead
//! of parking forever.

use super::Outcome;
use crate::spec::Spec;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// The lifecycle of one in-flight build.
enum FlightState {
    /// The leader is still planning/applying.
    Pending,
    /// The leader published its outcome; waiters read it and return.
    Done(Outcome),
    /// The leader dropped without completing (panic or early return);
    /// waiters must retry for themselves.
    Abandoned,
}

/// The result cell the waiters of one open flight park on, created by
/// the first of them.
pub struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        })
    }

    /// Block until the leader publishes. `Some(outcome)` on a completed
    /// flight; `None` if the leader abandoned it (the caller should
    /// retry — it will usually become the new leader).
    pub fn wait(&self) -> Option<Outcome> {
        let mut state = self.state.lock();
        loop {
            match *state {
                FlightState::Done(outcome) => return Some(outcome),
                FlightState::Abandoned => return None,
                FlightState::Pending => state = self.done.wait(state),
            }
        }
    }

    /// Store a terminal state and wake every waiter.
    fn publish(&self, terminal: FlightState) {
        *self.state.lock() = terminal;
        self.done.notify_all();
    }
}

/// One open flight in the map: the leader's spec, the token naming
/// its leader, and the result cell once a waiter has joined.
struct FlightEntry {
    spec: Spec,
    token: u64,
    flight: Option<Arc<Flight>>,
}

/// The open flights, in opening order, and the next leader token.
#[derive(Default)]
struct Inflight {
    entries: Vec<FlightEntry>,
    next_token: u64,
}

/// The in-flight map: open flights keyed by the leader's spec. One per
/// shard — routing already partitions specs, so a global map would only
/// add contention.
pub struct SingleFlight {
    inflight: Mutex<Inflight>,
}

/// What [`SingleFlight::begin`] hands back: lead the build or wait on
/// someone else's.
pub enum Ticket<'a> {
    /// No open flight satisfies the spec: the caller must serve the
    /// request and then [`LeaderGuard::complete`] it.
    Leader(LeaderGuard<'a>),
    /// An open flight's spec is a superset of the caller's: park on it
    /// via [`Flight::wait`] instead of touching the cache.
    Waiter(Arc<Flight>),
}

/// Obligation held by a flight's leader. Completing publishes the
/// outcome; dropping without completing publishes `Abandoned` so
/// waiters are never stranded. Either way, a flight nobody joined has
/// nothing to publish to.
pub struct LeaderGuard<'a> {
    owner: &'a SingleFlight,
    token: u64,
    completed: bool,
}

impl SingleFlight {
    /// An empty map with no open flights.
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(Inflight::default()),
        }
    }

    /// Join the first open flight whose spec is a superset of `spec`
    /// (allocating its result cell if the caller is its first waiter),
    /// or open a new flight led by the caller. The linear scan is fine:
    /// the map holds at most one entry per concurrently-planning
    /// leader, and subset matching needs the scan anyway.
    pub fn begin(&self, spec: &Spec) -> Ticket<'_> {
        let mut inflight = self.inflight.lock();
        for entry in inflight.entries.iter_mut() {
            if spec.is_subset(&entry.spec) {
                return Ticket::Waiter(Arc::clone(entry.flight.get_or_insert_with(Flight::new)));
            }
        }
        let token = inflight.next_token;
        inflight.next_token = token.wrapping_add(1);
        inflight.entries.push(FlightEntry {
            spec: spec.clone(),
            token,
            flight: None,
        });
        Ticket::Leader(LeaderGuard {
            owner: self,
            token,
            completed: false,
        })
    }

    /// Open flights right now (tests and introspection).
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().entries.len()
    }

    /// Open flights whose result cell exists (a waiter joined them).
    #[cfg(test)]
    fn flights_allocated(&self) -> usize {
        let inflight = self.inflight.lock();
        inflight
            .entries
            .iter()
            .filter(|e| e.flight.is_some())
            .count()
    }

    /// Close the flight led by `token`: remove its entry, keeping the
    /// others in opening order, then publish `terminal` if any waiter
    /// joined.
    fn close(&self, token: u64, terminal: FlightState) {
        let flight = {
            let mut inflight = self.inflight.lock();
            let at = inflight.entries.iter().position(|e| e.token == token);
            at.and_then(|i| inflight.entries.remove(i).flight)
        };
        if let Some(flight) = flight {
            flight.publish(terminal);
        }
    }
}

impl Default for SingleFlight {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl LeaderGuard<'_> {
    /// Publish `outcome` and wake every waiter. The map entry is
    /// removed *first* so requests arriving after the outcome exists in
    /// the cache plan against the cache, not a closed flight.
    pub fn complete(mut self, outcome: Outcome) {
        self.completed = true;
        self.owner.close(self.token, FlightState::Done(outcome));
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.owner.close(self.token, FlightState::Abandoned);
        }
    }
}

impl std::fmt::Debug for SingleFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight")
            .field("inflight", &self.inflight_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageId;
    use crate::spec::PackageId;
    use crate::util::mix64;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    fn outcome(bytes: u64) -> Outcome {
        Outcome::Hit {
            image: ImageId(7),
            image_bytes: bytes,
        }
    }

    #[test]
    fn identical_specs_coalesce_onto_the_leader() {
        let sf = Arc::new(SingleFlight::new());
        let s = spec(&[1, 2, 3]);
        let leader = match sf.begin(&s) {
            Ticket::Leader(g) => g,
            Ticket::Waiter(_) => panic!("first request must lead"),
        };
        let waited = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sf = Arc::clone(&sf);
            let s = s.clone();
            let waited = Arc::clone(&waited);
            handles.push(std::thread::spawn(move || match sf.begin(&s) {
                Ticket::Leader(_) => panic!("duplicate leader for an open flight"),
                Ticket::Waiter(flight) => {
                    waited.fetch_add(1, Ordering::SeqCst);
                    flight.wait()
                }
            }));
        }
        // Give the waiters time to actually park before publishing.
        while waited.load(Ordering::SeqCst) < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        leader.complete(outcome(42));
        for h in handles {
            let got = h.join().expect("waiter panicked");
            assert_eq!(got, Some(outcome(42)));
        }
        assert_eq!(sf.inflight_len(), 0, "completed flight must leave the map");
    }

    #[test]
    fn subset_specs_attach_to_a_superset_flight() {
        let sf = SingleFlight::new();
        let big = spec(&[1, 2, 3, 4]);
        let guard = match sf.begin(&big) {
            Ticket::Leader(g) => g,
            Ticket::Waiter(_) => panic!("first request must lead"),
        };
        match sf.begin(&spec(&[2, 4])) {
            Ticket::Waiter(_) => {}
            Ticket::Leader(_) => panic!("subset spec must wait on the superset flight"),
        }
        match sf.begin(&spec(&[2, 5])) {
            Ticket::Leader(g) => drop(g),
            Ticket::Waiter(_) => panic!("non-subset spec must lead its own flight"),
        }
        guard.complete(outcome(1));
    }

    #[test]
    fn abandoned_leader_wakes_waiters_with_none() {
        let sf = Arc::new(SingleFlight::new());
        let s = spec(&[9, 10]);
        let guard = match sf.begin(&s) {
            Ticket::Leader(g) => g,
            Ticket::Waiter(_) => panic!("first request must lead"),
        };
        let joined = Arc::new(AtomicU64::new(0));
        let waiter = {
            let (sf, s, joined) = (Arc::clone(&sf), s.clone(), Arc::clone(&joined));
            std::thread::spawn(move || match sf.begin(&s) {
                Ticket::Waiter(flight) => {
                    joined.store(1, Ordering::SeqCst);
                    flight.wait()
                }
                Ticket::Leader(_) => panic!("flight should still be open"),
            })
        };
        // Once the waiter holds the flight, the abandon reaches it
        // whether or not it has parked yet.
        while joined.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(guard); // leader bails out without completing
        assert_eq!(waiter.join().expect("waiter panicked"), None);
        assert_eq!(sf.inflight_len(), 0, "abandoned flight must leave the map");
        // The next request for the same spec leads a fresh flight.
        assert!(
            matches!(sf.begin(&s), Ticket::Leader(_)),
            "abandoned flight must not capture new requests"
        );
    }

    #[test]
    fn uncoalesced_leader_allocates_no_flight() {
        let sf = SingleFlight::new();
        let s = spec(&[1, 2]);
        let Ticket::Leader(guard) = sf.begin(&s) else {
            panic!("first request must lead");
        };
        let Ticket::Leader(other) = sf.begin(&spec(&[3])) else {
            panic!("a disjoint spec must lead its own flight");
        };
        assert_eq!(sf.inflight_len(), 2);
        assert_eq!(
            sf.flights_allocated(),
            0,
            "a leader alone allocates nothing"
        );
        guard.complete(outcome(1));
        drop(other);
        assert_eq!(sf.inflight_len(), 0);
        assert!(
            matches!(sf.begin(&s), Ticket::Leader(_)),
            "no open flight to join"
        );

        // The first waiter creates the flight; later waiters share it.
        let Ticket::Leader(guard) = sf.begin(&s) else {
            panic!("the map is empty again");
        };
        let Ticket::Waiter(first) = sf.begin(&spec(&[1])) else {
            panic!("a subset joins the open flight");
        };
        let Ticket::Waiter(second) = sf.begin(&s) else {
            panic!("an identical spec joins the open flight");
        };
        assert!(Arc::ptr_eq(&first, &second), "one flight per leader");
        assert_eq!(sf.flights_allocated(), 1);
        guard.complete(outcome(5));
        assert_eq!(first.wait(), Some(outcome(5)));
        assert_eq!(second.wait(), Some(outcome(5)));
        assert_eq!(sf.inflight_len(), 0);
    }

    /// What one thread of the random-join test came away with.
    #[derive(Debug)]
    enum Joined {
        /// It waited on an open flight and got this result.
        Waited(Option<Outcome>),
        /// Thread `t` found no open flight and led (and completed) its
        /// own.
        Led(u64),
    }

    /// Waiters join a flight at seeded random points of its life —
    /// before the first waiter exists, after it, or after the flight
    /// closed — while the leader completes or abandons it. Every thread
    /// comes back exactly once: a waiter with the outcome of the flight
    /// it joined, or `None` only when that flight was abandoned; a
    /// latecomer as a leader of its own.
    #[test]
    fn waiters_joining_at_random_points_each_get_one_result() {
        const THREADS: u64 = 4;
        let s = spec(&[3, 4, 5]);
        let mut waited = 0;
        for seed in 0..24u64 {
            let sf = Arc::new(SingleFlight::new());
            let abandon = mix64(seed) & 1 == 1;
            let Ticket::Leader(guard) = sf.begin(&s) else {
                panic!("first request must lead");
            };
            let started = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (sf, s, started) = (Arc::clone(&sf), s.clone(), Arc::clone(&started));
                    let delay = Duration::from_micros(mix64(seed * THREADS + t + 1) % 300);
                    std::thread::spawn(move || {
                        started.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(delay);
                        match sf.begin(&s) {
                            Ticket::Waiter(flight) => Joined::Waited(flight.wait()),
                            Ticket::Leader(own) => {
                                own.complete(outcome(100 + t));
                                Joined::Led(t)
                            }
                        }
                    })
                })
                .collect();
            while started.load(Ordering::SeqCst) < THREADS {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_micros(mix64(!seed) % 400));
            if abandon {
                drop(guard);
            } else {
                guard.complete(outcome(0));
            }
            let results: Vec<Joined> = handles
                .into_iter()
                .map(|h| h.join().expect("joiner panicked"))
                .collect();
            assert_eq!(results.len() as u64, THREADS);
            let led: Vec<u64> = results
                .iter()
                .filter_map(|got| match got {
                    Joined::Led(t) => Some(100 + t),
                    Joined::Waited(_) => None,
                })
                .collect();
            for got in &results {
                match got {
                    Joined::Led(_) => {}
                    Joined::Waited(None) => {
                        assert!(abandon, "seed {seed}: None from a completed flight");
                        waited += 1;
                    }
                    Joined::Waited(Some(o)) => {
                        let bytes = o.image_bytes();
                        assert!(
                            (bytes == 0 && !abandon) || led.contains(&bytes),
                            "seed {seed}: waiter got {o:?}"
                        );
                        waited += usize::from(bytes == 0);
                    }
                }
            }
            assert_eq!(sf.inflight_len(), 0, "seed {seed}: every flight closed");
        }
        assert!(waited > 0, "no seed had a waiter join the leader's flight");
    }
}
