//! Structured log of cache operations.
//!
//! Every request produces exactly one of `Hit`/`Merge`/`Insert`, plus
//! zero or more `Evict`s. The simulator mostly polls
//! [`CacheStats`](crate::cache::CacheStats) snapshots instead, but the
//! event stream is what the CLI's verbose mode and the failure-injection
//! tests consume.

use crate::image::ImageId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One cache operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheEvent {
    /// An existing image satisfied the request outright (`s ⊆ i`).
    Hit {
        /// The satisfying image.
        image: ImageId,
        /// Bytes the request asked for.
        requested_bytes: u64,
        /// Bytes of the image actually used.
        image_bytes: u64,
    },
    /// The request was merged into a close-enough image.
    Merge {
        /// The image that absorbed the request (id retained).
        image: ImageId,
        /// Jaccard distance between request and the pre-merge image.
        distance_milli: u16,
        /// Image bytes before the merge.
        old_bytes: u64,
        /// Image bytes after the merge (all rewritten).
        new_bytes: u64,
    },
    /// No reuse or merge possible; a fresh image was created.
    Insert {
        /// The new image.
        image: ImageId,
        /// Its size.
        bytes: u64,
    },
    /// An image was evicted to respect the byte limit.
    Evict {
        /// The evicted image.
        image: ImageId,
        /// Bytes freed.
        bytes: u64,
    },
    /// A bloated image was split into its constituent request specs.
    Split {
        /// The image that was split (no longer cached).
        image: ImageId,
        /// Number of constituent images created.
        pieces: u32,
    },
}

impl CacheEvent {
    /// Short tag for the operation kind ("hit", "merge", …).
    pub fn kind(&self) -> &'static str {
        match self {
            CacheEvent::Hit { .. } => "hit",
            CacheEvent::Merge { .. } => "merge",
            CacheEvent::Insert { .. } => "insert",
            CacheEvent::Evict { .. } => "evict",
            CacheEvent::Split { .. } => "split",
        }
    }
}

impl fmt::Display for CacheEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheEvent::Hit {
                image,
                requested_bytes,
                image_bytes,
            } => write!(
                f,
                "hit    {image} requested={requested_bytes} used={image_bytes}"
            ),
            CacheEvent::Merge {
                image,
                distance_milli,
                old_bytes,
                new_bytes,
            } => write!(
                f,
                "merge  {image} d={:.3} {old_bytes}B -> {new_bytes}B",
                *distance_milli as f64 / 1000.0
            ),
            CacheEvent::Insert { image, bytes } => write!(f, "insert {image} {bytes}B"),
            CacheEvent::Evict { image, bytes } => write!(f, "evict  {image} {bytes}B"),
            CacheEvent::Split { image, pieces } => write!(f, "split  {image} -> {pieces} pieces"),
        }
    }
}

/// A [`CacheEvent`] stamped with a monotone per-cache sequence number.
///
/// Sequence numbers start at 0 and increase by exactly 1 per event, so
/// downstream consumers (JSONL logs, crash-recovery diffing) can detect
/// dropped or reordered events. This is the wire form the CLI writes
/// for `--events-jsonl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequencedEvent {
    /// Position in the event stream: 0 for the first event, dense.
    pub seq: u64,
    /// The underlying cache operation.
    pub event: CacheEvent,
}

/// Receives cache events as they happen.
pub trait EventSink {
    /// Called once per event, in order.
    fn on_event(&mut self, event: &CacheEvent);
}

/// Stamps every event with a dense, monotone sequence number and hands
/// the resulting [`SequencedEvent`] to a delivery function.
///
/// The counter lives in the sink, so sequence numbers reflect exactly
/// the events this sink saw — attach it for a cache's whole lifetime to
/// get a gap-free stream.
#[derive(Debug)]
pub struct SequencingSink<F: FnMut(SequencedEvent)> {
    next_seq: u64,
    deliver: F,
}

impl<F: FnMut(SequencedEvent)> SequencingSink<F> {
    /// A sink starting at sequence number 0.
    pub fn new(deliver: F) -> Self {
        Self {
            next_seq: 0,
            deliver,
        }
    }

    /// The sequence number the next event will receive (equals the
    /// count of events seen so far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl<F: FnMut(SequencedEvent)> EventSink for SequencingSink<F> {
    fn on_event(&mut self, event: &CacheEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (self.deliver)(SequencedEvent { seq, event: *event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        assert_eq!(
            CacheEvent::Hit {
                image: ImageId(1),
                requested_bytes: 1,
                image_bytes: 2
            }
            .kind(),
            "hit"
        );
        assert_eq!(
            CacheEvent::Insert {
                image: ImageId(1),
                bytes: 1
            }
            .kind(),
            "insert"
        );
        assert_eq!(
            CacheEvent::Evict {
                image: ImageId(1),
                bytes: 1
            }
            .kind(),
            "evict"
        );
        assert_eq!(
            CacheEvent::Split {
                image: ImageId(1),
                pieces: 2
            }
            .kind(),
            "split"
        );
        assert_eq!(
            CacheEvent::Merge {
                image: ImageId(1),
                distance_milli: 500,
                old_bytes: 1,
                new_bytes: 2
            }
            .kind(),
            "merge"
        );
    }

    #[test]
    fn sequencing_sink_stamps_dense_monotone_seqs() {
        let mut seen: Vec<SequencedEvent> = Vec::new();
        {
            let mut sink = SequencingSink::new(|se| seen.push(se));
            assert_eq!(sink.next_seq(), 0);
            for i in 0..5u64 {
                sink.on_event(&CacheEvent::Insert {
                    image: ImageId(i),
                    bytes: i,
                });
            }
            assert_eq!(sink.next_seq(), 5);
        }
        assert_eq!(seen.len(), 5);
        for (i, se) in seen.iter().enumerate() {
            assert_eq!(se.seq, i as u64);
        }
    }

    #[test]
    fn sequenced_events_round_trip_through_serde() {
        let events = [
            CacheEvent::Hit {
                image: ImageId(1),
                requested_bytes: 100,
                image_bytes: u64::MAX,
            },
            CacheEvent::Merge {
                image: ImageId(2),
                distance_milli: 999,
                old_bytes: 0,
                new_bytes: u64::MAX,
            },
            CacheEvent::Insert {
                image: ImageId(3),
                bytes: 42,
            },
            CacheEvent::Evict {
                image: ImageId(4),
                bytes: 7,
            },
            CacheEvent::Split {
                image: ImageId(5),
                pieces: u32::MAX,
            },
        ];
        for (seq, event) in events.iter().enumerate() {
            let original = SequencedEvent {
                seq: seq as u64,
                event: *event,
            };
            let json = serde_json::to_string(&original).unwrap();
            let back: SequencedEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, original, "round-trip mismatch for {json}");
        }
    }

    #[test]
    fn display_formats() {
        let e = CacheEvent::Merge {
            image: ImageId(3),
            distance_milli: 750,
            old_bytes: 100,
            new_bytes: 150,
        };
        let s = format!("{e}");
        assert!(s.contains("img#3"));
        assert!(s.contains("0.750"));
    }
}
