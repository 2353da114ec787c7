//! # landlord-sim
//!
//! The trace-driven simulator behind every quantitative result in the
//! paper (§VI), plus the experiment harness that regenerates each
//! figure.
//!
//! Pipeline:
//!
//! * [`workload`] — turn a repository into a stream of job
//!   specifications: 500 unique jobs, each repeated 5 times, shuffled;
//!   each job is a uniform random selection of up to 100 packages
//!   expanded by its dependency closure (or, for the Fig. 7 control,
//!   re-drawn uniformly with no closure).
//! * [`simulator`] — run a stream through a
//!   [`landlord_core::cache::ImageCache`], sampling counters along the
//!   way (Fig. 5) and summarizing at the end.
//! * [`sweep`] — repeat simulations across α values / cache sizes / job
//!   counts, `runs` times each with distinct workload seeds, in
//!   parallel via crossbeam, reporting per-metric medians (the paper:
//!   "we repeated the simulation 20 times and reported the median
//!   behavior").
//! * [`trace`] — record/replay streams as JSON for reproducibility.
//! * [`report`] — fixed-width tables and CSV for every experiment.
//! * [`cluster`] — an extension past the paper's single shared cache: a
//!   head node plus a fleet of worker nodes with local scratch,
//!   measuring image transfer volume under different dispatch policies.
//! * [`faults`] — an end-to-end failure model: seeded per-request
//!   fault events (worker crash, build failure, transient store error)
//!   with bounded retry/backoff and graceful merge→insert degradation,
//!   reporting goodput and retry overhead.
//! * [`sharded`] — multi-threaded replay against the sharded cache
//!   frontend: shard-affine workers, per-shard stream order, folded
//!   counters identical to a single-threaded partitioned replay.
//! * [`minhash`] and [`lsh`] — MinHash signatures, a banded LSH index,
//!   and a driver that plans each request over only the index's
//!   proposals: the paper's §V approximation, for the
//!   `ablation-candidates` experiment.
//! * [`serve`] — open-loop server mode: seeded Poisson/uniform arrivals
//!   over Zipf-skewed specs, single-flight coalescing onto in-flight
//!   builds, bounded-queue backpressure, per-request latency — all in
//!   deterministic virtual time.
//! * [`experiments`] — one module per paper table/figure; the CLI and
//!   benches call these.

//! ```
//! use landlord_core::cache::CacheConfig;
//! use landlord_repo::{RepoConfig, Repository};
//! use landlord_sim::workload::{WorkloadConfig, WorkloadScheme};
//! use landlord_sim::simulator;
//!
//! let repo = Repository::generate(&RepoConfig::small_for_tests(3));
//! let workload = WorkloadConfig {
//!     unique_jobs: 20,
//!     repeats: 3,
//!     max_initial_selection: 6,
//!     scheme: WorkloadScheme::DependencyClosure,
//!     seed: 1,
//! };
//! let cache = CacheConfig {
//!     alpha: 0.8,
//!     limit_bytes: repo.total_bytes() / 2,
//!     ..CacheConfig::default()
//! };
//! let result = simulator::simulate(&repo, &workload, cache, 0);
//! assert_eq!(result.final_stats.requests, 60);
//! ```

pub mod cluster;
pub mod experiments;
pub mod faults;
pub mod lsh;
pub mod minhash;
pub mod report;
pub mod serve;
pub mod sharded;
pub mod simulator;
pub mod sweep;
pub mod trace;
pub mod workload;

pub use report::Table;
pub use serve::{
    generate_requests, serve_stream, ArrivalModel, Backpressure, ServeConfig, ServeOptions,
    ServeReport, ServeRequest, ServeResult,
};
pub use simulator::{simulate, RunResult, SeriesPoint};
pub use sweep::{sweep_alpha, AggregatedRun, SweepPoint};
pub use workload::{WorkloadConfig, WorkloadScheme};
