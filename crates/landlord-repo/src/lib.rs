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
//! [`DepGraph`]: the closure of every strongly connected component,
//! word-packed as a run of `(word index, 64-bit mask)` pairs, built by a
//! single iterative Tarjan pass on the first closure request (never on
//! construction or load, and never serialized). The SCC rule: all
//! members of a dependency cycle share one closure, so a cycle costs one
//! row. A selection's closure is the union of its seeds' rows, ORed a
//! word at a time. For the 9,660-package SFT-like universe the table
//! holds 91,312 pairs, about 9.5 per package, in 1.17 MB; sorted ids
//! would take 305k of them in 1.30 MB. The graph itself has 101k edges.
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
use serde::{DeError, Deserialize, Serialize, Value};

/// A complete software repository: package metadata, the dependency
/// graph, and the name/version catalog.
#[derive(Debug, Clone, Serialize)]
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

impl Deserialize for Repository {
    /// Decodes the three parts and rejects a file whose parts disagree:
    /// `packages`, `graph` and `catalog` must count the same packages,
    /// `packages[i]` must have id `i`, and every catalog id must be in
    /// the universe. Each would otherwise load and fail later, at a
    /// closure's universe assert or an out-of-range lookup.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| DeError(format!("missing field `{name}` in Repository")))
        };
        let packages = Vec::<PackageMeta>::from_value(field("packages")?)?;
        let graph = DepGraph::from_value(field("graph")?)?;
        let catalog = Catalog::from_value(field("catalog")?)?;
        let n = packages.len();
        for (part, count) in [
            ("graph", graph.package_count()),
            ("catalog", catalog.package_count()),
        ] {
            if count != n {
                return Err(DeError(format!(
                    "{part} has {count} packages but `packages` lists {n}"
                )));
            }
        }
        if let Some((i, p)) = (0u32..).zip(&packages).find(|(i, p)| p.id.0 != *i) {
            return Err(DeError(format!("packages[{i}] has id {}", p.id)));
        }
        let catalog_ids = catalog.spec_strings().map(|(_, id)| id);
        let group_ids = catalog.name_groups().flatten().copied();
        if let Some(id) = catalog_ids.chain(group_ids).find(|id| id.index() >= n) {
            return Err(DeError(format!("catalog id {id} outside universe of {n}")));
        }
        Ok(Repository {
            packages,
            graph,
            catalog,
        })
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

    /// The `SizeModel` contract for the repository and its size table:
    /// `ids_bytes` is the sum of `package_size` over the slice, whole or
    /// split, `spec_bytes` agrees with it, and both models give every
    /// package the same size.
    #[test]
    fn size_models_sum_their_members() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(11));
        let table = repo.size_table();
        let top = repo.package_count() as u32;
        for seeds in [vec![], vec![0], vec![top - 1], vec![3, top / 2, top - 2]] {
            let spec = repo.closure_spec(&seeds.into_iter().map(PackageId).collect::<Vec<_>>());
            for model in [&repo as &dyn SizeModel, &table] {
                let sum: u64 = spec.iter().map(|p| model.package_size(p)).sum();
                assert_eq!(model.ids_bytes(spec.ids()), sum);
                assert_eq!(model.spec_bytes(&spec), sum);
                let (low, high) = spec.ids().split_at(spec.len() / 3);
                assert_eq!(model.ids_bytes(low) + model.ids_bytes(high), sum);
            }
            for p in spec.iter() {
                assert_eq!(repo.package_size(p), table.package_size(p));
            }
        }
        assert_eq!(table.total_bytes(), repo.total_bytes());
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

    fn field<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
        match v {
            Value::Map(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("no field `{key}` in {other:?}"),
        }
    }

    fn seq(v: &mut Value) -> &mut Vec<Value> {
        match v {
            Value::Seq(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    /// Encode a generated repository, apply `edit` to the encoding,
    /// and decode it: the repository's package count and the decoder's
    /// error message.
    fn decode_error(edit: impl FnOnce(&mut Value, u64)) -> (u64, String) {
        let repo = Repository::generate(&RepoConfig::small_for_tests(5));
        let n = repo.package_count() as u64;
        let mut v = repo.to_value();
        edit(&mut v, n);
        (n, Repository::from_value(&v).unwrap_err().0)
    }

    #[test]
    fn decode_rejects_a_graph_of_another_size() {
        let (n, err) = decode_error(|v, _| {
            seq(field(v, "packages")).pop();
        });
        let want = format!("graph has {n} packages but `packages` lists {}", n - 1);
        assert_eq!(err, want);
    }

    #[test]
    fn decode_rejects_a_catalog_of_another_size() {
        let (n, err) = decode_error(|v, n| {
            *field(field(v, "catalog"), "package_count") = Value::U64(n + 1);
        });
        let want = format!("catalog has {} packages but `packages` lists {n}", n + 1);
        assert_eq!(err, want);
    }

    #[test]
    fn decode_rejects_a_package_out_of_place() {
        let (_, err) = decode_error(|v, _| seq(field(v, "packages")).swap(3, 4));
        assert_eq!(err, "packages[3] has id pkg#4");
    }

    #[test]
    fn decode_rejects_catalog_ids_outside_the_universe() {
        for edit_groups in [false, true] {
            let (n, err) = decode_error(|v, n| {
                let catalog = field(v, "catalog");
                let id = if edit_groups {
                    &mut seq(&mut seq(field(catalog, "groups"))[0])[0]
                } else {
                    match field(catalog, "by_spec_string") {
                        Value::Map(entries) => &mut entries[0].1,
                        other => panic!("not an object: {other:?}"),
                    }
                };
                *id = Value::U64(n);
            });
            assert_eq!(err, format!("catalog id pkg#{n} outside universe of {n}"));
        }
    }
}
