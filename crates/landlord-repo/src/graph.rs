//! The package dependency graph and closure computation.
//!
//! Stored in compressed sparse row (CSR) form: one flat edge array plus
//! per-package offsets. For the 9,660-package universe this is a few
//! hundred kilobytes, fully cache-resident.
//!
//! Closure expansion — the first step of every simulated request — reads
//! a *closure table*: the full, sorted dependency closure of each
//! strongly connected component, in one more flat CSR, built by a single
//! iterative Tarjan pass on the first closure request and kept with the
//! graph. A selection's closure is then the union of its seeds' rows, set
//! in a reusable bit set and read back in ascending order; no edge is
//! walked per request. Every package of one component has the same
//! closure, so a dependency cycle costs one row, not one per member.

use landlord_core::bitset::BitSet;
use landlord_core::spec::{PackageId, Spec};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// A directed dependency graph over `0..package_count` in CSR form.
/// Edge `p → d` means "p depends on d".
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// `offsets[p] .. offsets[p+1]` indexes `edges` for package `p`.
    offsets: Vec<u32>,
    /// Flat dependency lists, each list sorted ascending.
    edges: Vec<PackageId>,
    /// Built on the first closure request; never serialized.
    closures: OnceLock<ClosureTable>,
}

/// The dependency closure of every strongly connected component.
#[derive(Debug, Clone)]
struct ClosureTable {
    /// Component of each package.
    component: Vec<u32>,
    /// `offsets[c] .. offsets[c+1]` indexes `ids` for component `c`.
    offsets: Vec<u32>,
    /// Each component's closure (its members included), sorted ascending.
    ids: Vec<PackageId>,
}

impl ClosureTable {
    /// The closure of package `p`, sorted ascending.
    #[inline]
    fn row(&self, p: PackageId) -> &[PackageId] {
        let c = self.component[p.index()] as usize;
        &self.ids[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// One iterative Tarjan pass. Components complete in reverse
    /// topological order, so when one completes, every component it
    /// depends on already has its row, and its own row is its members
    /// plus those rows.
    fn build(graph: &DepGraph) -> Self {
        const NONE: u32 = u32::MAX;
        let n = graph.package_count();
        // Discovery index and low-link of each package; `NONE` = unseen.
        let mut index = vec![NONE; n];
        let mut low = vec![0u32; n];
        let mut component = vec![NONE; n];
        // Tarjan's stack of packages whose component is still open.
        let mut open: Vec<u32> = Vec::new();
        // The explicit DFS: a package and the position of its next edge.
        let mut calls: Vec<(u32, u32)> = Vec::new();
        let mut discovered = 0u32;
        // Components completed so far; never more than `discovered`.
        let mut components = 0u32;
        let mut table = ClosureTable {
            component: Vec::new(),
            offsets: vec![0],
            ids: Vec::new(),
        };
        // `stamp[p] == c` once `p` is in the row of component `c`.
        let mut stamp = vec![NONE; n];
        // (component, edge target) of the row being built.
        let mut successors: Vec<(u32, u32)> = Vec::new();

        for root in 0..n as u32 {
            if index[root as usize] != NONE {
                continue;
            }
            let mut entering = Some(root);
            loop {
                if let Some(v) = entering.take() {
                    index[v as usize] = discovered;
                    low[v as usize] = discovered;
                    discovered += 1;
                    open.push(v);
                    calls.push((v, graph.offsets[v as usize]));
                }
                let Some(&mut (v, ref mut next)) = calls.last_mut() else {
                    break;
                };
                let vi = v as usize;
                if *next < graph.offsets[vi + 1] {
                    let w = graph.edges[*next as usize].0;
                    *next += 1;
                    if index[w as usize] == NONE {
                        entering = Some(w);
                    } else if component[w as usize] == NONE {
                        // `w` is still open, so it is in `v`'s component.
                        low[vi] = low[vi].min(index[w as usize]);
                    }
                    continue;
                }
                calls.pop();
                if let Some(&(parent, _)) = calls.last() {
                    low[parent as usize] = low[parent as usize].min(low[vi]);
                }
                if low[vi] != index[vi] {
                    continue;
                }
                // `v` roots a component: everything open above it.
                let c = components;
                components += 1;
                let first = open.iter().rposition(|&m| m == v).unwrap_or(0);
                let row_start = table.ids.len();
                successors.clear();
                for &m in &open[first..] {
                    component[m as usize] = c;
                    stamp[m as usize] = c;
                    table.ids.push(PackageId(m));
                }
                for &m in &open[first..] {
                    for &d in graph.deps(PackageId(m)) {
                        let dc = component[d.index()];
                        if dc != c {
                            successors.push((dc, d.0));
                        }
                    }
                }
                open.truncate(first);
                // Later components may depend on earlier ones, never the
                // reverse, so taking the latest first lets each dependency
                // already inside the row skip its whole row: a closure
                // holding `d` holds `d`'s closure.
                successors.sort_unstable_by(|a, b| b.cmp(a));
                for &(dc, d) in &successors {
                    if stamp[d as usize] == c {
                        continue;
                    }
                    let (lo, hi) = (table.offsets[dc as usize], table.offsets[dc as usize + 1]);
                    for i in lo as usize..hi as usize {
                        let p = table.ids[i];
                        if stamp[p.index()] != c {
                            stamp[p.index()] = c;
                            table.ids.push(p);
                        }
                    }
                }
                table.ids[row_start..].sort_unstable();
                assert!(
                    table.ids.len() <= u32::MAX as usize,
                    "closure table overflows its u32 offsets"
                );
                table.offsets.push(table.ids.len() as u32); // audit: allow(lossy-cast) -- asserted to fit u32 above
            }
        }
        table.ids.shrink_to_fit();
        table.component = component;
        table
    }
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
        DepGraph {
            offsets,
            edges,
            closures: OnceLock::new(),
        }
    }

    /// The closure table, built on first use.
    fn closure_table(&self) -> &ClosureTable {
        self.closures.get_or_init(|| ClosureTable::build(self))
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

    /// Fan-in of each package: how many packages depend on it directly.
    /// Index by `PackageId::index`.
    pub fn fan_in(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.package_count()];
        for d in &self.edges {
            counts[d.index()] += 1;
        }
        counts
    }

    /// The reverse graph (edge `d → p` for every `p → d`): who depends
    /// on each package.
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

impl Serialize for DepGraph {
    /// The two CSR arrays only, in the field order and form a derived
    /// impl would write; the closure table is rebuilt on demand.
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("offsets".to_string(), self.offsets.to_value()),
            ("edges".to_string(), self.edges.to_value()),
        ])
    }
}

impl Deserialize for DepGraph {
    /// Decodes the two CSR arrays, rejecting offsets that do not index
    /// `edges` in order and edges that leave the universe.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| DeError(format!("missing field `{name}` in DepGraph")))
        };
        let offsets = Vec::<u32>::from_value(field("offsets")?)?;
        let edges = Vec::<PackageId>::from_value(field("edges")?)?;
        let n = offsets.len().saturating_sub(1);
        if offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().map(|&end| end as usize) != Some(edges.len())
        {
            return Err(DeError(
                "graph offsets must start at 0, never decrease and end at the edge count"
                    .to_string(),
            ));
        }
        if let Some(d) = edges.iter().find(|d| d.index() >= n) {
            return Err(DeError(format!("edge target {d} outside universe of {n}")));
        }
        Ok(DepGraph {
            offsets,
            edges,
            closures: OnceLock::new(),
        })
    }
}

/// Reusable closure computation state.
///
/// One simulated workload performs tens of thousands of closures over
/// the same universe; reusing the member bit set avoids reallocating it
/// per request.
#[derive(Debug, Clone)]
pub struct ClosureComputer {
    members: BitSet,
}

impl ClosureComputer {
    /// State for a universe of `package_count` packages.
    pub fn new(package_count: usize) -> Self {
        ClosureComputer {
            members: BitSet::new(package_count),
        }
    }

    /// The dependency closure of `seeds` (including the seeds), as a
    /// sorted [`Spec`].
    pub fn closure(&mut self, graph: &DepGraph, seeds: &[PackageId]) -> Spec {
        let members = self.closure_ids(graph, seeds);
        Spec::from_sorted_vec(members)
    }

    /// The dependency closure as a sorted id vector: the union of the
    /// seeds' closure-table rows.
    ///
    /// # Panics
    ///
    /// Panics when the graph has more packages than this computer's
    /// universe.
    pub fn closure_ids(&mut self, graph: &DepGraph, seeds: &[PackageId]) -> Vec<PackageId> {
        // Rows hold only ids of `graph`, so one range check here stands
        // in for one per id.
        assert!(
            graph.package_count() <= self.members.len(),
            "graph of {} packages outside universe of {}",
            graph.package_count(),
            self.members.len()
        );
        let table = graph.closure_table();
        self.members.clear();
        for &s in seeds {
            // A seed already in the union brought its closure with it.
            if self.members.contains(s.index()) {
                continue;
            }
            self.members
                .insert_all(table.row(s).iter().map(|p| p.index()));
        }
        let mut ids = Vec::with_capacity(self.members.count_ones());
        ids.extend(self.members.iter_ones().map(|i| PackageId(i as u32)));
        ids
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
    fn cycle_members_share_one_closure() {
        // 0 → 1 → 2 → 0, and 3 → 1.
        let g = DepGraph::from_adjacency(vec![
            vec![PackageId(1)],
            vec![PackageId(2)],
            vec![PackageId(0)],
            vec![PackageId(1)],
        ]);
        let mut c = ClosureComputer::new(4);
        let ring = [PackageId(0), PackageId(1), PackageId(2)];
        for p in ring {
            assert_eq!(c.closure_ids(&g, &[p]), ring);
        }
        assert_eq!(c.closure(&g, &[PackageId(3)]).len(), 4);
        let table = g.closure_table();
        assert_eq!(
            table.offsets.len() - 1,
            2,
            "one row for the ring, one for 3"
        );
    }

    #[test]
    fn long_chains_do_not_recurse() {
        // A 200,000-package ring entered from a tail: the search runs as
        // deep as the ring is long, yet the table holds one row of it.
        let n = 200_000u32;
        let mut adj: Vec<Vec<PackageId>> = (0..n).map(|i| vec![PackageId((i + 1) % n)]).collect();
        adj.push(vec![PackageId(0)]);
        let g = DepGraph::from_adjacency(adj);
        let mut c = ClosureComputer::new(g.package_count());
        assert_eq!(c.closure_ids(&g, &[PackageId(n - 1)]).len(), n as usize);
        assert_eq!(c.closure_ids(&g, &[PackageId(n)]).len(), n as usize + 1);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn an_undersized_computer_panics() {
        ClosureComputer::new(3).closure_ids(&chain(), &[PackageId(0)]);
    }

    #[test]
    fn the_table_is_built_on_the_first_closure_only() {
        let g = chain();
        let r = g.reversed();
        assert!(g.closures.get().is_none() && r.closures.get().is_none());
        let copy = g.clone();
        ClosureComputer::new(4).closure(&g, &[PackageId(0)]);
        assert!(g.closures.get().is_some());
        assert!(copy.closures.get().is_none());
    }

    #[test]
    fn fan_in_counts_direct_dependents() {
        let g = DepGraph::from_adjacency(vec![
            vec![],
            vec![PackageId(0)],
            vec![PackageId(0), PackageId(1)],
        ]);
        assert_eq!(g.fan_in(), vec![2, 1, 0]);
    }

    #[test]
    fn serde_writes_the_csr_arrays_only() {
        let g = chain();
        ClosureComputer::new(4).closure(&g, &[PackageId(2)]);
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(json, r#"{"offsets":[0,0,1,2,2],"edges":[0,1]}"#);
        let back: DepGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(
            ClosureComputer::new(4).closure_ids(&back, &[PackageId(2)]),
            [PackageId(0), PackageId(1), PackageId(2)]
        );
    }

    #[test]
    fn serde_rejects_malformed_graphs() {
        for bad in [
            r#"{"offsets":[0,1],"edges":[1]}"#,
            r#"{"offsets":[0,2,1],"edges":[0]}"#,
            r#"{"offsets":[1,1],"edges":[]}"#,
            r#"{"offsets":[],"edges":[]}"#,
            r#"{"edges":[]}"#,
        ] {
            assert!(serde_json::from_str::<DepGraph>(bad).is_err(), "{bad}");
        }
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

    /// Any graph over `0..n`, self-loops and cycles included.
    fn arb_graph(n: usize) -> impl Strategy<Value = DepGraph> {
        proptest::collection::vec(proptest::collection::vec(0u32..n as u32, 0..4), n).prop_map(
            |lists| {
                DepGraph::from_adjacency(
                    lists
                        .into_iter()
                        .map(|targets| targets.into_iter().map(PackageId).collect())
                        .collect(),
                )
            },
        )
    }

    /// The reference: walk every edge reachable from the seeds.
    fn dfs_closure(g: &DepGraph, seeds: &[PackageId]) -> Vec<PackageId> {
        let mut seen = vec![false; g.package_count()];
        let mut stack: Vec<PackageId> = seeds.to_vec();
        while let Some(p) = stack.pop() {
            if !std::mem::replace(&mut seen[p.index()], true) {
                stack.extend_from_slice(g.deps(p));
            }
        }
        (0u32..)
            .zip(seen)
            .filter(|&(_, s)| s)
            .map(|(i, _)| PackageId(i))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_closures_match_a_dfs(
            g in arb_graph(40),
            seeds in proptest::collection::vec(0u32..40, 0..6),
        ) {
            let seeds: Vec<PackageId> = seeds.into_iter().map(PackageId).collect();
            let mut c = ClosureComputer::new(40);
            prop_assert_eq!(c.closure_ids(&g, &seeds), dfs_closure(&g, &seeds));
            for p in 0..40 {
                prop_assert_eq!(
                    c.closure_ids(&g, &[PackageId(p)]),
                    dfs_closure(&g, &[PackageId(p)])
                );
            }
        }

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
