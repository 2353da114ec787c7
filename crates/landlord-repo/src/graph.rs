//! The package dependency graph and closure computation.
//!
//! Stored in compressed sparse row (CSR) form: one flat edge array plus
//! per-package offsets. For the 9,660-package universe this is a few
//! hundred kilobytes, fully cache-resident.
//!
//! Closure expansion — the first step of every simulated request — reads
//! a *closure table*: the full dependency closure of each strongly
//! connected component, word-packed as a run of `(word index, 64-bit
//! mask)` pairs, one pair per 64-id word the closure reaches, held in
//! two flat arrays. Each package indexes its component's run directly.
//! The table is built packed by a single iterative Tarjan pass on the
//! first closure request and kept with the graph. A selection's closure
//! is then the union of its seeds' rows, ORed a word at a time into a
//! reusable bit set and read back in ascending order from the span of
//! words the rows reached; no edge is walked per request. Every package
//! of one component has the same closure, so a dependency cycle costs
//! one row, not one per member.

use landlord_core::bitset::BitSet;
use landlord_core::spec::{PackageId, Spec};
use serde::{DeError, Deserialize, Serialize, Value};
use std::ops::Range;
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

/// The dependency closure of every package, word-packed.
///
/// A row is a run of `(word index, 64-bit mask)` pairs in ascending word
/// order, one pair per 64-id word the closure reaches, held in two flat
/// arrays. Every package of one strongly connected component shares its
/// component's run.
#[derive(Debug, Clone)]
struct ClosureTable {
    /// `runs[p]` indexes `words` and `masks` for package `p`'s closure.
    runs: Vec<(u32, u32)>,
    /// The word index of each pair.
    words: Vec<u32>,
    /// The member ids of each pair: bit `b` of a mask at word index `w`
    /// is package `64 * w + b`.
    masks: Vec<u64>,
}

impl ClosureTable {
    /// One iterative Tarjan pass. Components complete in reverse
    /// topological order, so when one completes, every component it
    /// depends on already has its row, and its own row is its members
    /// ORed with those rows.
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
            runs: vec![(0, 0); n],
            words: Vec::new(),
            masks: Vec::new(),
        };
        // The members of the row being built; empty between rows.
        let mut scratch = BitSet::new(n);
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
                let members = &open[first..];
                successors.clear();
                let mut row = RowUnion::over(&mut scratch);
                for &m in members {
                    component[m as usize] = c;
                    row.insert(m as usize);
                }
                for &m in members {
                    for &d in graph.deps(PackageId(m)) {
                        let dc = component[d.index()];
                        if dc != c {
                            successors.push((dc, d.0));
                        }
                    }
                }
                // Later components may depend on earlier ones, never the
                // reverse, so taking the latest first lets each dependency
                // already inside the row skip its whole row: a closure
                // holding `d` holds `d`'s closure.
                successors.sort_unstable_by(|a, b| b.cmp(a));
                for &(_, d) in &successors {
                    if !row.contains(d as usize) {
                        row.or_row(&table, d as usize);
                    }
                }
                let run_start = table.words.len();
                row.drain(|wi, mask| {
                    table.words.push(wi as u32);
                    table.masks.push(mask);
                });
                assert!(
                    table.words.len() <= u32::MAX as usize,
                    "closure table overflows its u32 runs"
                );
                // audit: allow(lossy-cast) -- asserted to fit u32 above
                let run = (run_start as u32, table.words.len() as u32);
                for &m in members {
                    table.runs[m as usize] = run;
                }
                open.truncate(first);
            }
        }
        table.words.shrink_to_fit();
        table.masks.shrink_to_fit();
        table
    }

    /// Bytes held by the table's three arrays.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<(u32, u32)>()
            + self.words.len() * std::mem::size_of::<u32>()
            + self.masks.len() * std::mem::size_of::<u64>()
    }
}

/// A union of closure rows over an empty member bit set, tracking the
/// span of member words the rows reach, so reading the union back and
/// clearing it cost that span, not the whole universe.
struct RowUnion<'a> {
    members: &'a mut BitSet,
    /// Words `lo..hi` of `members` may be non-zero; every other is zero.
    lo: usize,
    hi: usize,
}

impl<'a> RowUnion<'a> {
    /// A union over `members`, which must be empty.
    #[inline]
    fn over(members: &'a mut BitSet) -> Self {
        RowUnion {
            members,
            lo: usize::MAX,
            hi: 0,
        }
    }

    #[inline]
    fn contains(&self, p: usize) -> bool {
        self.members.contains(p)
    }

    /// Widen the span to hold words `first..=last`.
    #[inline]
    fn reach(&mut self, first: usize, last: usize) {
        self.lo = self.lo.min(first);
        self.hi = self.hi.max(last + 1);
    }

    #[inline]
    fn insert(&mut self, p: usize) {
        self.members.insert(p);
        self.reach(p / 64, p / 64);
    }

    /// OR package `p`'s row into the union.
    #[inline]
    fn or_row(&mut self, table: &ClosureTable, p: usize) {
        let (lo, hi) = table.runs[p];
        let run = lo as usize..hi as usize;
        let (words, masks) = (&table.words[run.clone()], &table.masks[run]);
        // Rows are never empty and run in ascending word order.
        if let (Some(&first), Some(&last)) = (words.first(), words.last()) {
            self.reach(first as usize, last as usize);
        }
        for (&wi, &mask) in words.iter().zip(masks) {
            self.members.or_word(wi as usize, mask);
        }
    }

    /// The words that may be non-zero.
    #[inline]
    fn span(&self) -> Range<usize> {
        self.lo.min(self.hi)..self.hi
    }

    /// Number of members.
    #[inline]
    fn count_ones(&self) -> usize {
        self.members.count_ones_in(self.span())
    }

    /// Hand each non-zero word to `emit` as `(word index, mask)`, in
    /// ascending word order, leaving the member set empty.
    #[inline]
    fn drain(self, emit: impl FnMut(usize, u64)) {
        let span = self.span();
        self.members.drain_words(span, emit);
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
    /// Empty between calls.
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
    /// seeds' closure-table rows, ORed in a word at a time and read back
    /// from the span of words they reached.
    ///
    /// # Panics
    ///
    /// Panics when the graph has more packages than this computer's
    /// universe, or a seed is outside the graph.
    pub fn closure_ids(&mut self, graph: &DepGraph, seeds: &[PackageId]) -> Vec<PackageId> {
        // Rows hold only words of `graph`, so one range check here stands
        // in for one per word.
        assert!(
            graph.package_count() <= self.members.len(),
            "graph of {} packages outside universe of {}",
            graph.package_count(),
            self.members.len()
        );
        // Checked before any row is ORed: a panic part-way through would
        // leave the member set dirty for the next call.
        let n = graph.package_count();
        assert!(
            seeds.iter().all(|s| s.index() < n),
            "a seed is outside graph of {n} packages"
        );
        let table = graph.closure_table();
        let mut union = RowUnion::over(&mut self.members);
        for &s in seeds {
            // A seed already in the union brought its closure with it.
            if !union.contains(s.index()) {
                union.or_row(table, s.index());
            }
        }
        let mut ids = Vec::with_capacity(union.count_ones());
        union.drain(|wi, mask| {
            let base = (wi * 64) as u32;
            let mut bits = mask;
            while bits != 0 {
                ids.push(PackageId(base + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        });
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
        assert!(ring.iter().all(|p| table.runs[p.index()] == table.runs[0]));
        assert_eq!(table.words.len(), 2, "one row for the ring, one for 3");
    }

    #[test]
    fn packed_rows_are_smaller_than_sorted_id_rows() {
        let repo = crate::Repository::generate(&crate::RepoConfig::sft_like(0x5f7_c0de));
        let g = repo.graph();
        ClosureComputer::new(g.package_count()).closure_ids(g, &[]);
        let table = g.closure_table();
        // One run per component, since no row is empty.
        let mut rows = table.runs.clone();
        rows.sort_unstable();
        rows.dedup();
        let ids: u32 = rows
            .iter()
            .flat_map(|&(lo, hi)| &table.masks[lo as usize..hi as usize])
            .map(|m| m.count_ones())
            .sum();
        // The layout packing replaced: a component per package, an
        // offset per component, and each component's closure as ids.
        let id_bytes = 4 * (g.package_count() + rows.len() + 1 + ids as usize);
        assert!(
            table.heap_bytes() < id_bytes,
            "{} packed bytes against {id_bytes} as ids",
            table.heap_bytes()
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
    fn a_seed_outside_the_graph_panics_and_leaves_the_computer_clean() {
        let g = chain();
        let mut c = ClosureComputer::new(8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.closure_ids(&g, &[PackageId(2), PackageId(5)])
        }));
        let msg = caught.unwrap_err();
        assert!(msg
            .downcast_ref::<String>()
            .unwrap()
            .contains("outside graph"));
        assert_eq!(c.closure_ids(&g, &[PackageId(3)]), [PackageId(3)]);
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

    /// Ids on both sides of the 63/64 and 127/128 word boundaries.
    const STRADDLING: [u32; 8] = [62, 63, 64, 65, 126, 127, 128, 129];

    /// An id below 200, half the time one of [`STRADDLING`]. Callers
    /// reduce it modulo a universe of at least 130 packages, which
    /// leaves every straddling id as it is.
    fn arb_id() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..200, (0..STRADDLING.len()).prop_map(|i| STRADDLING[i])]
    }

    /// Per-package dependency lists over a universe of 130–200
    /// packages, so closure rows span up to four words, with edge
    /// targets biased to the word boundaries.
    fn arb_lists() -> impl Strategy<Value = Vec<Vec<PackageId>>> {
        (
            130u32..=200,
            proptest::collection::vec(proptest::collection::vec(arb_id(), 0..4), 200),
        )
            .prop_map(|(n, lists)| {
                lists
                    .into_iter()
                    .take(n as usize)
                    .map(|targets| targets.into_iter().map(|t| PackageId(t % n)).collect())
                    .collect()
            })
    }

    /// Random layered DAG: each node may depend only on lower indices,
    /// which guarantees acyclicity by construction.
    fn arb_dag() -> impl Strategy<Value = DepGraph> {
        arb_lists().prop_map(|lists| {
            let adj: Vec<Vec<PackageId>> = lists
                .into_iter()
                .enumerate()
                .map(|(i, targets)| targets.into_iter().filter(|t| t.index() < i).collect())
                .collect();
            DepGraph::from_adjacency(adj)
        })
    }

    /// Any graph, self-loops and cycles included, plus one ring through
    /// ids drawn like the edge targets, so a cycle often spans words.
    fn arb_graph() -> impl Strategy<Value = DepGraph> {
        (arb_lists(), proptest::collection::vec(arb_id(), 2..6)).prop_map(|(mut adj, ring)| {
            let n = adj.len() as u32;
            for (i, &from) in ring.iter().enumerate() {
                let to = ring[(i + 1) % ring.len()];
                adj[(from % n) as usize].push(PackageId(to % n));
            }
            DepGraph::from_adjacency(adj)
        })
    }

    /// Seeds drawn like the edge targets, reduced into `g`'s universe.
    fn seeds_in(g: &DepGraph, ids: &[u32]) -> Vec<PackageId> {
        let n = g.package_count() as u32;
        ids.iter().map(|&t| PackageId(t % n)).collect()
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
        // The default config reads `PROPTEST_CASES`, so CI can scale
        // this differential up.
        #[test]
        fn table_closures_match_a_dfs(
            g in arb_graph(),
            seeds in proptest::collection::vec(arb_id(), 0..8),
        ) {
            let seeds = seeds_in(&g, &seeds);
            let mut c = ClosureComputer::new(g.package_count());
            prop_assert_eq!(c.closure_ids(&g, &seeds), dfs_closure(&g, &seeds));
            for p in 0..g.package_count() as u32 {
                prop_assert_eq!(
                    c.closure_ids(&g, &[PackageId(p)]),
                    dfs_closure(&g, &[PackageId(p)])
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn layered_dags_validate(g in arb_dag()) {
            prop_assert!(g.validate_acyclic().is_ok());
        }

        #[test]
        fn closure_is_dep_closed(g in arb_dag(), seed in arb_id()) {
            let seed = seeds_in(&g, &[seed])[0];
            let mut c = ClosureComputer::new(g.package_count());
            let spec = c.closure(&g, &[seed]);
            // Every member's dependencies are also members.
            for p in spec.iter() {
                for &d in g.deps(p) {
                    prop_assert!(spec.contains(d), "{p} dep {d} missing from closure");
                }
            }
            prop_assert!(spec.contains(seed));
        }

        #[test]
        fn closure_is_monotone_in_seeds(g in arb_dag(), a in arb_id(), b in arb_id()) {
            let ab = seeds_in(&g, &[a, b]);
            let mut c = ClosureComputer::new(g.package_count());
            let just_a = c.closure(&g, &ab[..1]);
            let both = c.closure(&g, &ab);
            prop_assert!(just_a.is_subset(&both));
        }

        #[test]
        fn closure_is_idempotent(g in arb_dag(), seed in arb_id()) {
            let mut c = ClosureComputer::new(g.package_count());
            let once: Vec<PackageId> = c.closure_ids(&g, &seeds_in(&g, &[seed]));
            let twice = c.closure_ids(&g, &once);
            prop_assert_eq!(once, twice);
        }
    }
}
