//! Tunable cache policies — the knobs behind the paper's ablations —
//! and the workspace-wide [`CachePolicy`] trait every image-management
//! strategy (LANDLORD plus all baselines) implements.
//!
//! The paper evaluates one concrete configuration (LRU eviction, merge
//! candidates "sorted by dj()", exact Jaccard) but explicitly points at
//! the alternatives: MinHash pre-filtering for very large specs (§V) and
//! site-specific tuning (§VI, "Tuning LANDLORD"). These enums make each
//! choice explicit and benchmarkable, and the trait lets one generic
//! driver (simulator, cluster model, CLI, benches) run any strategy.

use crate::cache::{CacheStats, Plan};
use crate::metrics::ContainerEfficiency;
use crate::spec::Spec;
use landlord_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};

/// Which image to evict when the cache exceeds its byte limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EvictionPolicy {
    /// Least-recently-used (the paper's choice): "Without regular use,
    /// the bloated image will eventually be evicted from the cache."
    #[default]
    Lru,
    /// Least-frequently-used; ties broken by recency.
    Lfu,
    /// Largest image first — frees space fastest but punishes merged
    /// images that serve many requests.
    LargestFirst,
    /// Smallest `use_count / bytes` density first: evict images that
    /// deliver the fewest requests per byte retained.
    CostDensity,
    /// Greedy-Dual-Size-Frequency: evict the smallest priority
    /// `L + use_count / bytes`, where the inflation term `L` is raised
    /// to each victim's priority on eviction. Size-aware like
    /// [`EvictionPolicy::CostDensity`], but the inflation term ages
    /// images out the way LRU does, so a once-hot giant image cannot
    /// squat in the cache forever.
    Gdsf,
    /// S3-FIFO (SOSP'23): three static FIFO queues — a small probationary
    /// queue (~10% of the byte budget), a main queue, and a ghost queue
    /// of recently evicted identities. One-hit wonders die cheaply out
    /// of the small queue; images re-requested after eviction (ghost
    /// hits) are admitted straight to main. Touches are O(1) counter
    /// bumps — no ordered index is maintained.
    S3Fifo,
    /// Sampled LHD (hit density): learns age-class hit/eviction
    /// histograms online and evicts the image with the lowest predicted
    /// hits-per-byte-per-tick among K randomly sampled images (seeded
    /// from [`crate::cache::CacheConfig::eviction_seed`]). Touches are
    /// O(1) histogram bumps — no ordered index is maintained.
    LhdSample,
}

impl EvictionPolicy {
    /// Every variant, for exhaustive tests and CLI help strings.
    pub const ALL: [EvictionPolicy; 7] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::LargestFirst,
        EvictionPolicy::CostDensity,
        EvictionPolicy::Gdsf,
        EvictionPolicy::S3Fifo,
        EvictionPolicy::LhdSample,
    ];

    /// The valid CLI tokens, for error messages.
    pub const TOKENS: &'static str =
        "lru, lfu, largest-first, cost-density, gdsf, s3-fifo, lhd-sample";

    /// Stable lowercase token for CLI parsing and report labels.
    pub fn token(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::LargestFirst => "largest-first",
            EvictionPolicy::CostDensity => "cost-density",
            EvictionPolicy::Gdsf => "gdsf",
            EvictionPolicy::S3Fifo => "s3-fifo",
            EvictionPolicy::LhdSample => "lhd-sample",
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "lru" => EvictionPolicy::Lru,
            "lfu" => EvictionPolicy::Lfu,
            "largest-first" => EvictionPolicy::LargestFirst,
            "cost-density" => EvictionPolicy::CostDensity,
            "gdsf" => EvictionPolicy::Gdsf,
            "s3-fifo" => EvictionPolicy::S3Fifo,
            "lhd-sample" => EvictionPolicy::LhdSample,
            _ => return None,
        })
    }
}

/// Order in which merge candidates (distance < α, Algorithm 1's second
/// loop) are tried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MergeOrder {
    /// Nearest candidate first — the paper's "Selection can be sorted
    /// by dj()".
    #[default]
    NearestFirst,
    /// Whatever order the cache iterates (arrival order); the cheapest
    /// option and the baseline the sorted variant improves on.
    ArrivalOrder,
    /// Largest candidate image first — biases toward growing one big
    /// shared image.
    LargestFirst,
    /// Smallest candidate image first — biases toward many mid-size
    /// images.
    SmallestFirst,
}

impl MergeOrder {
    /// Every variant, for exhaustive tests and CLI help strings.
    pub const ALL: [MergeOrder; 4] = [
        MergeOrder::NearestFirst,
        MergeOrder::ArrivalOrder,
        MergeOrder::LargestFirst,
        MergeOrder::SmallestFirst,
    ];

    /// The valid CLI tokens, for error messages.
    pub const TOKENS: &'static str = "nearest-first, arrival-order, largest-first, smallest-first";

    /// Stable lowercase token for CLI parsing and report labels.
    pub fn token(self) -> &'static str {
        match self {
            MergeOrder::NearestFirst => "nearest-first",
            MergeOrder::ArrivalOrder => "arrival-order",
            MergeOrder::LargestFirst => "largest-first",
            MergeOrder::SmallestFirst => "smallest-first",
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "nearest-first" => MergeOrder::NearestFirst,
            "arrival-order" => MergeOrder::ArrivalOrder,
            "largest-first" => MergeOrder::LargestFirst,
            "smallest-first" => MergeOrder::SmallestFirst,
            _ => return None,
        })
    }
}

/// Which quantity the Jaccard distance is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DistanceMetric {
    /// Package counts — the paper's metric.
    #[default]
    PackageCount,
    /// On-disk bytes — weighs a shared multi-gigabyte framework more
    /// than a differing shell script (`ablation-metric`).
    Bytes,
}

impl DistanceMetric {
    /// Every variant, for exhaustive tests and CLI help strings.
    pub const ALL: [DistanceMetric; 2] = [DistanceMetric::PackageCount, DistanceMetric::Bytes];

    /// The valid CLI tokens, for error messages.
    pub const TOKENS: &'static str = "package-count, bytes";

    /// Stable lowercase token for CLI parsing and report labels.
    pub fn token(self) -> &'static str {
        match self {
            DistanceMetric::PackageCount => "package-count",
            DistanceMetric::Bytes => "bytes",
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "package-count" => DistanceMetric::PackageCount,
            "bytes" => DistanceMetric::Bytes,
            _ => return None,
        })
    }
}

/// How merge candidates are enumerated before the distance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CandidateStrategy {
    /// Every cached image within distance α, exactly (the paper's
    /// simulated configuration). The engine counts every image's
    /// overlap with the request on its package → image posting table,
    /// in one pass over the request's rows, and scores with the exact
    /// Jaccard distance only the images whose overlap is large enough
    /// to be within α.
    #[default]
    ExactScan,
    /// MinHash + banded LSH pre-filter, then exact confirmation. Never
    /// merges a pair the exact scan would reject, but may miss pairs
    /// (false negatives) — the trade the paper describes for very large
    /// specification collections.
    MinHashLsh {
        /// Bands in the LSH index.
        bands: usize,
        /// Rows (signature slots) per band.
        rows: usize,
    },
}

impl CandidateStrategy {
    /// The valid CLI token shapes, for error messages.
    pub const TOKENS: &'static str = "exact-scan, minhash-lsh:<bands>x<rows>";

    /// Signature length required by this strategy (0 for exact scan).
    pub fn signature_len(self) -> usize {
        match self {
            CandidateStrategy::ExactScan => 0,
            CandidateStrategy::MinHashLsh { bands, rows } => bands * rows,
        }
    }

    /// Stable lowercase token for CLI parsing and report labels;
    /// parameterized for the LSH variant (e.g. `minhash-lsh:32x4`).
    pub fn token(self) -> String {
        match self {
            CandidateStrategy::ExactScan => "exact-scan".to_string(),
            CandidateStrategy::MinHashLsh { bands, rows } => {
                format!("minhash-lsh:{bands}x{rows}")
            }
        }
    }

    /// Parse a CLI token. `minhash-lsh` without parameters uses the
    /// 32x4 shape the ablations run.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "exact-scan" {
            return Some(CandidateStrategy::ExactScan);
        }
        if s == "minhash-lsh" {
            return Some(CandidateStrategy::MinHashLsh { bands: 32, rows: 4 });
        }
        let shape = s.strip_prefix("minhash-lsh:")?;
        let (bands, rows) = shape.split_once('x')?;
        let bands: usize = bands.parse().ok().filter(|&b| b > 0)?;
        let rows: usize = rows.parse().ok().filter(|&r| r > 0)?;
        Some(CandidateStrategy::MinHashLsh { bands, rows })
    }
}

/// Bounded retry with exponential backoff, in simulated time ticks.
///
/// A failed image build (worker crash, transient store error, build
/// failure) may be re-attempted up to `max_retries` times; retry `k`
/// (1-based) waits `backoff_base_ticks * 2^(k-1)` ticks, capped at
/// `backoff_cap_ticks`. `RetryPolicy::none()` — the paper's implicit
/// configuration, where every failure is terminal — is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Additional attempts allowed after the first failure.
    pub max_retries: u32,
    /// Backoff before the first retry, in simulated ticks.
    pub backoff_base_ticks: u64,
    /// Upper bound on any single backoff wait.
    pub backoff_cap_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// No retries: every failure is terminal.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base_ticks: 0,
            backoff_cap_ticks: 0,
        }
    }

    /// Retry up to `max_retries` times with capped exponential backoff.
    pub fn new(max_retries: u32, backoff_base_ticks: u64, backoff_cap_ticks: u64) -> Self {
        RetryPolicy {
            max_retries,
            backoff_base_ticks,
            backoff_cap_ticks,
        }
    }

    /// Backoff before retry number `retry` (1-based), in ticks.
    /// Saturates instead of overflowing and never exceeds the cap.
    pub fn backoff_before(&self, retry: u32) -> u64 {
        if retry == 0 || self.backoff_base_ticks == 0 {
            return 0;
        }
        let doublings = retry - 1;
        let wait = if doublings >= 64 {
            u64::MAX
        } else {
            self.backoff_base_ticks.saturating_mul(1u64 << doublings)
        };
        wait.min(self.backoff_cap_ticks)
    }

    /// Compact label for tables and CLI output, e.g. `r3/b2c16` or
    /// `none`.
    pub fn label(&self) -> String {
        if self.max_retries == 0 {
            "none".to_string()
        } else {
            format!(
                "r{}/b{}c{}",
                self.max_retries, self.backoff_base_ticks, self.backoff_cap_ticks
            )
        }
    }
}

/// How one request was served by a [`CachePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedOp {
    /// An existing image satisfied the request; nothing was written.
    Hit,
    /// An existing image was rewritten (merged) to absorb the request.
    Merged,
    /// A fresh image was created for the request.
    Inserted,
}

/// What serving one request through a [`CachePolicy`] yielded — the
/// policy-agnostic slice of [`crate::cache::Outcome`] the generic
/// drivers (simulator, cluster model) need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Which operation the policy performed.
    pub op: ServedOp,
    /// Identity of the serving image, stable within the policy. For
    /// strategies with a single image (full-repo, layer chain) this is
    /// always 0.
    pub image: u64,
    /// Bytes of the image the job actually runs from.
    pub image_bytes: u64,
    /// Monotone revision of the serving image; bumps whenever the image
    /// is rewritten in place, invalidating worker-node copies.
    pub revision: u64,
}

/// What serving a spec would require of storage — the policy-agnostic
/// slice of [`crate::cache::Plan`] the failure-injecting driver needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPlan {
    /// An existing image satisfies the spec: no build, nothing to fail.
    Hit,
    /// A fresh image of this many bytes would be built.
    Insert {
        /// Bytes the build would write.
        bytes: u64,
    },
    /// An existing image would be rewritten in place at this total
    /// size. Rewrites can gracefully degrade to a fresh insert when
    /// they keep failing; plain inserts cannot.
    Rewrite {
        /// Bytes the rewrite would write.
        bytes: u64,
    },
}

impl BuildPlan {
    /// Bytes one attempt would write (thrown away if the attempt fails).
    pub fn cost(self) -> u64 {
        match self {
            BuildPlan::Hit => 0,
            BuildPlan::Insert { bytes } | BuildPlan::Rewrite { bytes } => bytes,
        }
    }
}

/// One request decided once by [`CachePolicy::plan_build`]: what the
/// build costs, plus the engine decision [`CachePolicy::apply_build`]
/// later executes unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedBuild {
    /// What serving the spec requires of storage.
    pub build: BuildPlan,
    /// The plan/apply engine's decision; `None` for policies whose
    /// [`CachePolicy::request`] decides and serves in one step.
    pub plan: Option<Plan>,
}

impl From<BuildPlan> for PlannedBuild {
    fn from(build: BuildPlan) -> Self {
        PlannedBuild { build, plan: None }
    }
}

/// One image-management strategy, drivable by the generic simulator.
///
/// Implemented by [`crate::cache::ImageCache`] (LANDLORD) and by every
/// baseline in `landlord-baselines` (per-job LRU, full-repo, layer
/// chain, block-dedup store), so `landlord-sim`, `landlord-cli
/// simulate` and the benches drive any of them through one code path.
pub trait CachePolicy {
    /// Stable policy name for reports and CLI selection.
    fn name(&self) -> &'static str;

    /// Apply any deferred maintenance so that [`Self::plan_build`] is
    /// exact. Policies with no deferred work (everything but LANDLORD's
    /// lazy bloat split) need not override this.
    fn settle(&mut self) {}

    /// Serve one request end to end.
    fn request(&mut self, spec: &Spec) -> Served;

    /// Degraded-path request: serve `spec` with a minimal fresh image
    /// even when a hit or merge candidate exists. Policies without a
    /// degraded path serve normally.
    fn insert_fresh(&mut self, spec: &Spec) -> Served {
        self.request(spec)
    }

    /// Decide how `spec` would be served, without mutating anything —
    /// the hook the failure-injecting driver uses to decide which
    /// requests can fail and what a failed attempt wastes. The result
    /// is then served by [`Self::apply_build`], so each request is
    /// planned once.
    fn plan_build(&self, spec: &Spec) -> PlannedBuild;

    /// Serve `spec` as `planned` decided, on the state it was planned
    /// on. Policies without a plan/apply split re-decide through
    /// [`Self::request`].
    fn apply_build(&mut self, spec: &Spec, _planned: &PlannedBuild) -> Served {
        self.request(spec)
    }

    /// Bytes `spec` occupies under this policy's size model.
    fn spec_bytes(&self, spec: &Spec) -> u64;

    /// Counter snapshot in the shared [`CacheStats`] shape.
    fn stats(&self) -> CacheStats;

    /// Mean container efficiency over all requests so far (percent).
    fn container_efficiency_pct(&self) -> f64;

    /// The raw container-efficiency accumulator, so callers can fold
    /// partitions exactly ([`ContainerEfficiency::merge`]) and read the
    /// clamp counter ([`ContainerEfficiency::clamped_samples`]).
    fn container_eff(&self) -> ContainerEfficiency;

    /// Cache efficiency right now (percent).
    fn cache_efficiency_pct(&self) -> f64 {
        self.stats().cache_efficiency_pct()
    }

    /// Number of cached images.
    fn len(&self) -> usize;

    /// True when nothing is cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte limit this policy evicts down to (`u64::MAX` when
    /// unbounded).
    fn limit_bytes(&self) -> u64;

    /// Re-verify all internal bookkeeping; panics on inconsistency.
    fn check_invariants(&self);

    /// Attach a metrics registry. Instrumented policies resolve their
    /// metric handles from it and record from then on; the default is
    /// a no-op so un-instrumented baselines cost nothing. Safe to call
    /// with a registry shared across policies/shards — every metric
    /// folds exactly.
    fn attach_metrics(&mut self, _registry: &MetricsRegistry) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_tokens_round_trip_exhaustively() {
        for p in EvictionPolicy::ALL {
            assert_eq!(EvictionPolicy::parse(p.token()), Some(p));
            assert!(
                EvictionPolicy::TOKENS.contains(p.token()),
                "{} missing from TOKENS",
                p.token()
            );
        }
        assert_eq!(EvictionPolicy::parse("nope"), None);
    }

    #[test]
    fn merge_order_tokens_round_trip_exhaustively() {
        for m in MergeOrder::ALL {
            assert_eq!(MergeOrder::parse(m.token()), Some(m));
            assert!(MergeOrder::TOKENS.contains(m.token()));
        }
        assert_eq!(MergeOrder::parse(""), None);
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::Lru);
        assert_eq!(MergeOrder::default(), MergeOrder::NearestFirst);
        assert_eq!(CandidateStrategy::default(), CandidateStrategy::ExactScan);
        assert_eq!(DistanceMetric::default(), DistanceMetric::PackageCount);
    }

    #[test]
    fn metric_tokens_round_trip_exhaustively() {
        for m in DistanceMetric::ALL {
            assert_eq!(DistanceMetric::parse(m.token()), Some(m));
            assert!(DistanceMetric::TOKENS.contains(m.token()));
        }
        assert_eq!(DistanceMetric::parse("x"), None);
    }

    #[test]
    fn candidate_tokens_round_trip() {
        for c in [
            CandidateStrategy::ExactScan,
            CandidateStrategy::MinHashLsh { bands: 32, rows: 4 },
            CandidateStrategy::MinHashLsh { bands: 8, rows: 16 },
            CandidateStrategy::MinHashLsh { bands: 1, rows: 1 },
        ] {
            assert_eq!(CandidateStrategy::parse(&c.token()), Some(c));
        }
        assert_eq!(
            CandidateStrategy::parse("minhash-lsh"),
            Some(CandidateStrategy::MinHashLsh { bands: 32, rows: 4 }),
            "bare token uses the ablation shape"
        );
        for bad in [
            "",
            "exact",
            "minhash-lsh:",
            "minhash-lsh:0x4",
            "minhash-lsh:4x0",
            "minhash-lsh:4",
            "minhash-lsh:x",
            "minhash-lsh:ax4",
        ] {
            assert_eq!(CandidateStrategy::parse(bad), None, "{bad:?} must reject");
        }
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let p = RetryPolicy::new(5, 2, 16);
        assert_eq!(p.backoff_before(1), 2);
        assert_eq!(p.backoff_before(2), 4);
        assert_eq!(p.backoff_before(3), 8);
        assert_eq!(p.backoff_before(4), 16);
        assert_eq!(p.backoff_before(5), 16, "capped");
        assert_eq!(p.backoff_before(0), 0);
    }

    #[test]
    fn retry_backoff_saturates_on_huge_retry_counts() {
        let p = RetryPolicy::new(u32::MAX, u64::MAX / 2, u64::MAX);
        assert_eq!(p.backoff_before(200), u64::MAX, "saturates, no overflow");
    }

    #[test]
    fn retry_none_is_inert() {
        let p = RetryPolicy::none();
        assert_eq!(p, RetryPolicy::default());
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.backoff_before(1), 0);
        assert_eq!(p.label(), "none");
        assert_eq!(RetryPolicy::new(3, 1, 8).label(), "r3/b1c8");
    }

    #[test]
    fn signature_len() {
        assert_eq!(CandidateStrategy::ExactScan.signature_len(), 0);
        assert_eq!(
            CandidateStrategy::MinHashLsh { bands: 16, rows: 8 }.signature_len(),
            128
        );
    }

    #[test]
    fn build_plan_costs() {
        assert_eq!(BuildPlan::Hit.cost(), 0);
        assert_eq!(BuildPlan::Insert { bytes: 7 }.cost(), 7);
        assert_eq!(BuildPlan::Rewrite { bytes: 9 }.cost(), 9);
    }
}
