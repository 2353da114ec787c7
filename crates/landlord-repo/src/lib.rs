//! # landlord-repo
//!
//! The software-repository substrate LANDLORD manages containers for.
//!
//! The paper's evaluation is driven by the CERN SFT CVMFS repository: a
//! dependency tree of **9,660 packages** extracted from build metadata,
//! where "a program or library typically provides packages for multiple
//! versions, platforms, and configurations" and "there are a number of
//! core components that are transitive dependencies of a large number
//! of packages". We do not have that proprietary metadata, so this crate
//! generates a synthetic universe with the same statistical structure
//! (see `DESIGN.md` §2 for the substitution argument):
//!
//! * a layered, acyclic dependency graph — base runtimes at the bottom,
//!   frameworks and libraries in the middle, leaf applications on top;
//! * *near-universal core components* attached to almost every closure
//!   (the paper: "certain core components are used near-universally");
//! * multiple versions per software product, enabling version-conflict
//!   experiments;
//! * log-normal package sizes scaled to a configurable repository total
//!   (default 700 GB, matching the TB-scale repos of Fig. 2).
//!
//! The central operation is [`Repository::closure_spec`]: expand a
//! selection of requested packages into the full dependency closure —
//! exactly how the paper builds simulated images ("when building a
//! simulated image, we recursively include dependencies of requested
//! software").
//!
//! Closures are read from a *closure table* kept with the
//! [`DepGraph`]: the sorted closure of every strongly connected
//! component in one flat CSR, built by a single iterative Tarjan pass on
//! the first closure request (never on construction or load, and never
//! serialized). The SCC rule: all members of a dependency cycle share one
//! closure, so a cycle costs one row. A selection's closure is the union
//! of its seeds' rows. The table holds the sum of the components'
//! closure sizes — 305k ids (1.2 MB) for the 9,660-package SFT-like
//! universe, about 32 per package — next to the graph's 101k edges.
//!
//! ```
//! use landlord_core::spec::PackageId;
//! use landlord_repo::{RepoConfig, Repository};
//!
//! let repo = Repository::generate(&RepoConfig::small_for_tests(7));
//! // Request the newest application; its closure pulls libraries,
//! // frameworks, and the near-universal base components along.
//! let app = PackageId(repo.package_count() as u32 - 1);
//! let spec = repo.closure_spec(&[app]);
//! assert!(spec.contains(app));
//! assert!(spec.len() > 1, "closures include transitive dependencies");
//! ```

pub mod catalog;
pub mod evolution;
pub mod generator;
pub mod graph;
pub mod package;
pub mod persist;
pub mod sampler;
pub mod stats;

pub use catalog::Catalog;
pub use generator::RepoConfig;
pub use graph::{ClosureComputer, DepGraph};
pub use package::{PackageKind, PackageMeta};

use landlord_core::sizes::SizeModel;
use landlord_core::spec::{PackageId, Spec};
use serde::{Deserialize, Serialize};

/// A complete software repository: package metadata, the dependency
/// graph, and the name/version catalog.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Repository {
    packages: Vec<PackageMeta>,
    graph: DepGraph,
    catalog: Catalog,
}

impl Repository {
    /// Assemble a repository from parts (used by the generator and the
    /// persistence layer).
    ///
    /// # Panics
    ///
    /// Panics when the parts disagree on the package count.
    pub fn from_parts(packages: Vec<PackageMeta>, graph: DepGraph, catalog: Catalog) -> Self {
        assert_eq!(
            packages.len(),
            graph.package_count(),
            "graph/metadata mismatch"
        );
        assert_eq!(
            packages.len(),
            catalog.package_count(),
            "catalog/metadata mismatch"
        );
        Repository {
            packages,
            graph,
            catalog,
        }
    }

    /// Generate a synthetic repository. See [`RepoConfig`].
    pub fn generate(config: &RepoConfig) -> Self {
        generator::generate(config)
    }

    /// Number of packages in the universe.
    pub fn package_count(&self) -> usize {
        self.packages.len()
    }

    /// Metadata of one package.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn meta(&self, id: PackageId) -> &PackageMeta {
        &self.packages[id.index()]
    }

    /// All package metadata, indexed by [`PackageId`].
    pub fn packages(&self) -> &[PackageMeta] {
        &self.packages
    }

    /// The dependency graph.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The name/version catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Total on-disk bytes of every package — the "full repo" size of
    /// Fig. 2.
    pub fn total_bytes(&self) -> u64 {
        self.packages.iter().map(|p| p.bytes).sum()
    }

    /// Sum of sizes of the given packages (no closure expansion).
    pub fn selection_bytes(&self, ids: &[PackageId]) -> u64 {
        ids.iter().map(|&id| self.meta(id).bytes).sum()
    }

    /// Expand a selection into its full dependency closure, as a spec.
    ///
    /// This is the paper's image-construction step: "for each simulated
    /// request, we chose a random selection of packages and then added
    /// the closure of the package dependencies."
    pub fn closure_spec(&self, seeds: &[PackageId]) -> Spec {
        let mut computer = ClosureComputer::new(self.package_count());
        computer.closure(&self.graph, seeds)
    }

    /// `package id → name id` table for
    /// [`SingleVersionPerName`](landlord_core::conflict::SingleVersionPerName).
    pub fn name_table(&self) -> Vec<u32> {
        self.packages.iter().map(|p| p.name_id).collect()
    }

    /// Dense per-package size table (for fast `SizeModel` lookups
    /// without holding the whole repository).
    pub fn size_table(&self) -> landlord_core::sizes::TableSizes {
        landlord_core::sizes::TableSizes::new(self.packages.iter().map(|p| p.bytes).collect())
    }
}

impl SizeModel for Repository {
    fn package_size(&self, id: PackageId) -> u64 {
        self.packages.get(id.index()).map(|p| p.bytes).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_repo_is_consistent() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(42));
        assert_eq!(repo.package_count(), repo.graph().package_count());
        assert!(repo.total_bytes() > 0);
        repo.graph()
            .validate_acyclic()
            .expect("generated graph must be a DAG");
    }

    #[test]
    fn closure_includes_seeds() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(7));
        let seeds = [PackageId(repo.package_count() as u32 - 1)];
        let spec = repo.closure_spec(&seeds);
        assert!(spec.contains(seeds[0]));
        assert!(!spec.is_empty());
    }

    #[test]
    fn size_model_matches_metadata() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(3));
        for id in 0..repo.package_count() as u32 {
            let p = PackageId(id);
            assert_eq!(repo.package_size(p), repo.meta(p).bytes);
        }
        let table = repo.size_table();
        assert_eq!(table.total_bytes(), repo.total_bytes());
    }

    #[test]
    fn out_of_range_size_is_zero() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(1));
        assert_eq!(repo.package_size(PackageId(u32::MAX)), 0);
    }
}
