//! # landlord-core
//!
//! Specification-level container image cache management, reproducing the
//! LANDLORD system from *"Solving the Container Explosion Problem for
//! Distributed High Throughput Computing"* (Shaffer, Hazekamp, Blomer,
//! Thain — IEEE IPDPS 2020).
//!
//! The central idea of the paper is that **container specifications offer
//! more opportunities for management and optimization than containers
//! themselves**: a specification is an *unordered set* of package
//! requirements, so specifications can be compared (Jaccard distance),
//! checked for satisfaction (subset), and combined (union) — none of which
//! is possible with opaque image files or ordered build recipes.
//!
//! This crate provides:
//!
//! * [`Spec`] — an immutable, sorted set of [`PackageId`]s with fast set
//!   algebra (subset, union, intersection size).
//! * [`jaccard`] — the exact Jaccard distance used to decide whether two
//!   specifications are "close enough" to merge.
//! * [`conflict`] — pluggable compatibility checking between
//!   specifications (the paper's append-only CVMFS case never conflicts;
//!   general package managers may).
//! * [`sizes`] — the [`sizes::SizeModel`] abstraction mapping
//!   packages to on-disk bytes, so the cache can account storage without
//!   knowing anything about a concrete repository.
//! * [`cache`] — [`cache::ImageCache`], a byte-bounded image
//!   store implementing the paper's Algorithm 1 (hit / merge / insert)
//!   with LRU eviction and full operation accounting.
//! * [`policy`] — the tunable knobs (eviction policy, merge candidate
//!   ordering, distance metric) used for the ablation studies.
//! * [`metrics`] — the paper's two utilization metrics, *cache
//!   efficiency* (unique ÷ total cached bytes) and *container efficiency*
//!   (requested ÷ used image bytes).
//! * [`events`] — a structured log of cache operations for tracing and
//!   debugging.
//! * [`snapshot`] — serializable cache checkpoints for warm restarts
//!   and golden-state tests.
//!
//! ## Quick example
//!
//! ```
//! use landlord_core::cache::{CacheConfig, ImageCache, Outcome};
//! use landlord_core::sizes::UniformSizes;
//! use landlord_core::spec::{PackageId, Spec};
//! use std::sync::Arc;
//!
//! // Every package is 1 GiB; cache holds 10 GiB; merge when Jaccard
//! // distance < 0.8.
//! let sizes = Arc::new(UniformSizes::new(1 << 30));
//! let config = CacheConfig { alpha: 0.8, limit_bytes: 10 << 30, ..CacheConfig::default() };
//! let mut cache = ImageCache::new(config, sizes);
//!
//! let a = Spec::from_ids([1, 2, 3].map(PackageId));
//! let b = Spec::from_ids([1, 2, 4].map(PackageId));
//!
//! // First request inserts a fresh image.
//! assert!(matches!(cache.request(&a), Outcome::Inserted { .. }));
//! // Close request merges into the existing image (distance 0.5 < 0.8).
//! assert!(matches!(cache.request(&b), Outcome::Merged { .. }));
//! // The merged image now satisfies both specifications outright.
//! assert!(matches!(cache.request(&a), Outcome::Hit { .. }));
//! ```

pub mod bitset;
pub mod cache;
pub mod conflict;
pub mod events;
pub mod filter;
pub mod image;
pub mod jaccard;
pub mod metrics;
pub mod policy;
pub mod sizes;
pub mod snapshot;
pub mod spec;
pub mod util;

pub use cache::{CacheConfig, CacheStats, ImageCache, Outcome, ShardedImageCache};
pub use filter::XorFilter;
pub use image::{Image, ImageId};
pub use spec::{PackageId, Spec};
