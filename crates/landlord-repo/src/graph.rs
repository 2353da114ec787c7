//! The package dependency graph and closure computation.
//!
//! Stored in compressed sparse row (CSR) form: one flat edge array plus
//! per-package offsets. For the 9,660-package universe this is a few
//! hundred kilobytes, fully cache-resident, and closure expansion — the
//! hot operation of every simulated request — is a tight BFS over dense
//! `u32` ids with a reusable bit set for the visited check.

use landlord_core::bitset::BitSet;
use landlord_core::spec::{PackageId, Spec};
use serde::{Deserialize, Serialize};

/// A directed dependency graph over `0..package_count` in CSR form.
/// Edge `p → d` means "p depends on d".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DepGraph {
    /// `offsets[p] .. offsets[p+1]` indexes `edges` for package `p`.
    offsets: Vec<u32>,
    /// Flat dependency lists, each list sorted ascending.
    edges: Vec<PackageId>,
}

/// Error returned by [`DepGraph::validate_acyclic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// A package participating in a dependency cycle.
    pub member: PackageId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dependency cycle through {}", self.member)
    }
}

impl std::error::Error for CycleError {}

impl DepGraph {
    /// Build from per-package dependency lists.
    ///
    /// # Panics
    ///
    /// Panics when an edge points outside `0..deps.len()`.
    pub fn from_adjacency(deps: Vec<Vec<PackageId>>) -> Self {
        let n = deps.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0u32);
        for mut list in deps {
            list.sort_unstable();
            list.dedup();
            for &d in &list {
                assert!(d.index() < n, "edge target {d} outside universe of {n}");
            }
            edges.extend_from_slice(&list);
            assert!(
                edges.len() <= u32::MAX as usize,
                "edge count overflows the u32 offset table"
            );
            offsets.push(edges.len() as u32); // audit: allow(lossy-cast) -- asserted to fit u32 above
        }
        DepGraph { offsets, edges }
    }

    /// Number of packages (nodes).
    pub fn package_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Direct dependencies of `p`, sorted ascending.
    #[inline]
    pub fn deps(&self, p: PackageId) -> &[PackageId] {
        let lo = self.offsets[p.index()] as usize;
        let hi = self.offsets[p.index() + 1] as usize;
        &self.edges[lo..hi]
    }

    /// The reverse graph (edge `d → p` for every `p → d`): who depends
    /// on each package. Used for fan-in statistics.
    pub fn reversed(&self) -> DepGraph {
        let n = self.package_count();
        let mut rev: Vec<Vec<PackageId>> = vec![Vec::new(); n];
        for p in 0..n {
            for &d in self.deps(PackageId(p as u32)) {
                rev[d.index()].push(PackageId(p as u32));
            }
        }
        DepGraph::from_adjacency(rev)
    }

    /// Topological order (dependencies before dependents), or a cycle
    /// error. Kahn's algorithm.
    pub fn topo_order(&self) -> Result<Vec<PackageId>, CycleError> {
        let n = self.package_count();
        // indegree in the "depends on" direction: count of dependents.
        let mut indegree = vec![0usize; n];
        for (p, slot) in indegree.iter_mut().enumerate() {
            *slot = self.deps(PackageId(p as u32)).len();
        }
        // Nodes with no dependencies come first.
        let mut queue: Vec<PackageId> = (0..n as u32)
            .map(PackageId)
            .filter(|p| indegree[p.index()] == 0)
            .collect();
        let rev = self.reversed();
        let mut order = Vec::with_capacity(n);
        while let Some(p) = queue.pop() {
            order.push(p);
            for &dependent in rev.deps(p) {
                indegree[dependent.index()] -= 1;
                if indegree[dependent.index()] == 0 {
                    queue.push(dependent);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            // An incomplete order leaves some node with positive
            // indegree; PackageId(0) is an unreachable fallback.
            let member = (0..n as u32)
                .map(PackageId)
                .find(|p| indegree[p.index()] > 0)
                .unwrap_or(PackageId(0));
            Err(CycleError { member })
        }
    }

    /// Check that the graph is a DAG.
    pub fn validate_acyclic(&self) -> Result<(), CycleError> {
        self.topo_order().map(|_| ())
    }

    /// Longest dependency chain below `p` (0 for a leaf), computed for
    /// all packages at once. Index by `PackageId::index`.
    pub fn depths(&self) -> Result<Vec<u32>, CycleError> {
        let order = self.topo_order()?;
        let mut depth = vec![0u32; self.package_count()];
        // `order` lists dependencies before dependents, so one pass works.
        for p in order {
            let d = self
                .deps(p)
                .iter()
                .map(|q| depth[q.index()] + 1)
                .max()
                .unwrap_or(0);
            depth[p.index()] = d;
        }
        Ok(depth)
    }
}

/// Reusable closure computation state.
///
/// One simulated workload performs tens of thousands of closures over
/// the same universe; reusing the visited bit set and work stack avoids
/// reallocating them per request.
#[derive(Debug, Clone)]
pub struct ClosureComputer {
    visited: BitSet,
    stack: Vec<PackageId>,
}

impl ClosureComputer {
    /// State for a universe of `package_count` packages.
    pub fn new(package_count: usize) -> Self {
        ClosureComputer {
            visited: BitSet::new(package_count),
            stack: Vec::new(),
        }
    }

    /// The dependency closure of `seeds` (including the seeds), as a
    /// sorted [`Spec`].
    pub fn closure(&mut self, graph: &DepGraph, seeds: &[PackageId]) -> Spec {
        let members = self.closure_ids(graph, seeds);
        Spec::from_sorted_vec(members)
    }

    /// The dependency closure as a sorted id vector.
    pub fn closure_ids(&mut self, graph: &DepGraph, seeds: &[PackageId]) -> Vec<PackageId> {
        self.visited.clear();
        self.stack.clear();
        for &s in seeds {
            if self.visited.insert(s.index()) {
                self.stack.push(s);
            }
        }
        while let Some(p) = self.stack.pop() {
            for &d in graph.deps(p) {
                if self.visited.insert(d.index()) {
                    self.stack.push(d);
                }
            }
        }
        self.visited
            .iter_ones()
            .map(|i| PackageId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 ← 1 ← 2 (2 depends on 1 depends on 0), 3 isolated.
    fn chain() -> DepGraph {
        DepGraph::from_adjacency(vec![vec![], vec![PackageId(0)], vec![PackageId(1)], vec![]])
    }

    #[test]
    fn csr_construction_and_lookup() {
        let g = chain();
        assert_eq!(g.package_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.deps(PackageId(2)), &[PackageId(1)]);
        assert!(g.deps(PackageId(0)).is_empty());
    }

    #[test]
    fn adjacency_dedups_edges() {
        let g = DepGraph::from_adjacency(vec![vec![], vec![PackageId(0), PackageId(0)]]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn closure_follows_transitive_deps() {
        let g = chain();
        let mut c = ClosureComputer::new(4);
        let spec = c.closure(&g, &[PackageId(2)]);
        assert_eq!(spec.ids(), &[PackageId(0), PackageId(1), PackageId(2)]);
    }

    #[test]
    fn closure_of_multiple_seeds_unions() {
        let g = chain();
        let mut c = ClosureComputer::new(4);
        let spec = c.closure(&g, &[PackageId(1), PackageId(3)]);
        assert_eq!(spec.ids(), &[PackageId(0), PackageId(1), PackageId(3)]);
    }

    #[test]
    fn closure_computer_is_reusable() {
        let g = chain();
        let mut c = ClosureComputer::new(4);
        let a = c.closure(&g, &[PackageId(2)]);
        let b = c.closure(&g, &[PackageId(3)]);
        assert_eq!(a.len(), 3);
        assert_eq!(b.ids(), &[PackageId(3)], "state leaked between closures");
    }

    #[test]
    fn empty_seed_closure_is_empty() {
        let g = chain();
        let mut c = ClosureComputer::new(4);
        assert!(c.closure(&g, &[]).is_empty());
    }

    #[test]
    fn reversed_graph() {
        let g = chain();
        let r = g.reversed();
        assert_eq!(r.deps(PackageId(0)), &[PackageId(1)]);
        assert_eq!(r.deps(PackageId(1)), &[PackageId(2)]);
        assert!(r.deps(PackageId(2)).is_empty());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = chain();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = (0..4)
            .map(|p| order.iter().position(|&x| x == PackageId(p)).unwrap())
            .collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[1] < pos[2]);
    }

    #[test]
    fn cycle_is_detected() {
        let g = DepGraph::from_adjacency(vec![vec![PackageId(1)], vec![PackageId(0)]]);
        let err = g.validate_acyclic().unwrap_err();
        assert!(err.member == PackageId(0) || err.member == PackageId(1));
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn depths_of_chain() {
        let g = chain();
        let d = g.depths().unwrap();
        assert_eq!(d, vec![0, 1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_edge_panics() {
        let _ = DepGraph::from_adjacency(vec![vec![PackageId(9)]]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random layered DAG: each node may depend only on lower indices,
    /// which guarantees acyclicity by construction.
    fn arb_dag(n: usize) -> impl Strategy<Value = DepGraph> {
        proptest::collection::vec(proptest::collection::vec(0u32..n as u32, 0..5), n).prop_map(
            move |lists| {
                let adj: Vec<Vec<PackageId>> = lists
                    .into_iter()
                    .enumerate()
                    .map(|(i, targets)| {
                        targets
                            .into_iter()
                            .filter(|&t| (t as usize) < i)
                            .map(PackageId)
                            .collect()
                    })
                    .collect();
                DepGraph::from_adjacency(adj)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn layered_dags_validate(g in arb_dag(40)) {
            prop_assert!(g.validate_acyclic().is_ok());
        }

        #[test]
        fn closure_is_dep_closed(g in arb_dag(40), seed in 0u32..40) {
            let mut c = ClosureComputer::new(40);
            let spec = c.closure(&g, &[PackageId(seed)]);
            // Every member's dependencies are also members.
            for p in spec.iter() {
                for &d in g.deps(p) {
                    prop_assert!(spec.contains(d), "{p} dep {d} missing from closure");
                }
            }
            prop_assert!(spec.contains(PackageId(seed)));
        }

        #[test]
        fn closure_is_monotone_in_seeds(g in arb_dag(40), a in 0u32..40, b in 0u32..40) {
            let mut c = ClosureComputer::new(40);
            let just_a = c.closure(&g, &[PackageId(a)]);
            let both = c.closure(&g, &[PackageId(a), PackageId(b)]);
            prop_assert!(just_a.is_subset(&both));
        }

        #[test]
        fn closure_is_idempotent(g in arb_dag(40), seed in 0u32..40) {
            let mut c = ClosureComputer::new(40);
            let once: Vec<PackageId> = c.closure_ids(&g, &[PackageId(seed)]);
            let twice = c.closure_ids(&g, &once);
            prop_assert_eq!(once, twice);
        }
    }
}
