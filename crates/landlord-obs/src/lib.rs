//! Deterministic observability for the landlord workspace.
//!
//! Three pieces, all designed around the same exact-folding discipline
//! as the sharded cache counters (PR 5):
//!
//! * [`MetricsRegistry`] — lock-free counters, gauges, and log2-bucketed
//!   u64 histograms. Every aggregate is an integer and every
//!   [`MetricsRegistry::merge`] / [`Histogram::merge`] is an exact,
//!   associative, commutative integer fold, so per-shard registries
//!   fold to byte-identical snapshots regardless of fold order or
//!   thread count.
//! * Spans — RAII guards ([`SpanGuard`], [`span!`]) that time a phase
//!   against a pluggable [`Clock`] and record the elapsed ticks into a
//!   histogram. With a [`LogicalClock`] (simulated ticks) the recorded
//!   values are deterministic; a [`MonotonicClock`] gives real
//!   wall-clock nanoseconds for benchmarking. Wall time never leaks
//!   into sim-visible metrics: landlord-core and landlord-sim only ever
//!   see the `Clock` trait (the `no-raw-clock` audit rule enforces
//!   this).
//!
//! The registry is deliberately string-keyed and schema-versioned
//! ([`snapshot::METRICS_SCHEMA`]) rather than typed per metric: the
//! instrumented crates stay decoupled from the export surface, and the
//! snapshot JSON is byte-stable across runs at a fixed seed.

pub mod clock;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use clock::{Clock, LogicalClock, MonotonicClock};
pub use registry::{
    bucket_index, bucket_upper_bound, quantile_upper_bound, Counter, Gauge, Histogram,
    MetricsRegistry,
};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, METRICS_SCHEMA};
pub use span::SpanGuard;
