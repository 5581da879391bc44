//! Single-root execution of compiled counting plans.
//!
//! [`PlanExecutor`] evaluates every node of a [`CountingPlan`] for one root
//! vertex: direct nodes run a symmetry-broken rooted DFS, product nodes
//! combine already-evaluated children with the inclusion–exclusion
//! corrections. Because nodes are in topological order, one linear pass
//! suffices per root.
//!
//! The DFS never intersects adjacency lists (DESIGN.md §14.2): every
//! position takes its plan's candidate step
//! ([`ExplorationPlan::candidate_slice`] plus one [`Marks`] test per
//! candidate, the step the pattern-induced enumerator takes too), and the
//! deepest level is counted, not walked. A deepest level that closes on
//! the root ([`PlanLevel::closes_on_root`]) scans nothing either: its hits
//! are read from the root's common-neighbour counts.
//!
//! Per-root evaluation is what lets the engine distribute this exactly like
//! enumeration jobs: each root vertex is one work unit, node values are
//! additive over roots, and a worker's kernel counters drain into the same
//! `fractal-metrics/1` fields the enumerator uses.

use fractal_graph::kernels::KernelCounters;
use fractal_graph::{Graph, VertexId};

use crate::plan::{Marks, PlanLevel};
use crate::planner::{CountingPlan, PlanKind};
use crate::{CanonicalCode, ExplorationPlan, Pattern};

/// Evaluates a compiled counting plan one root vertex at a time.
pub struct PlanExecutor<'a> {
    g: &'a Graph,
    plan: &'a CountingPlan,
    /// Per-node value for the current root (scratch, overwritten per root).
    vals: Vec<i128>,
    /// Whether any direct node tests bit 0: the root is position 0 of every
    /// one of them, so it marks once per root, not once per node.
    root_marks: bool,
    /// Nothing marked between evaluations, unless one was unwound.
    marks: Marks,
    /// The common-neighbour counts of the current root, once a level that
    /// closes on it has been reached; cleared by the next `eval_root`.
    common: CommonCounts,
    matched: Vec<u32>,
    counters: KernelCounters,
    ec: u64,
}

impl<'a> PlanExecutor<'a> {
    /// Prepares an executor for `plan` over `g`.
    pub fn new(g: &'a Graph, plan: &'a CountingPlan) -> Self {
        let direct = || {
            plan.nodes.iter().filter_map(|n| match &n.kind {
                PlanKind::Direct { plan, .. } => Some(plan),
                PlanKind::Product { .. } => None,
            })
        };
        PlanExecutor {
            g,
            plan,
            vals: vec![0; plan.nodes.len()],
            root_marks: direct().any(|p| p.level(0).sets_mark),
            marks: Marks::default(),
            common: CommonCounts::default(),
            matched: Vec::with_capacity(direct().map(|p| p.len()).max().unwrap_or(1)),
            counters: KernelCounters::default(),
            ec: 0,
        }
    }

    /// Bytes this executor keeps resident for its lifetime: the marks and
    /// the common-neighbour counts (4 each per graph vertex) plus the
    /// per-node value and match tables.
    pub fn resident_bytes(&self) -> usize {
        self.marks.resident_bytes()
            + self.common.resident_bytes()
            + self.vals.capacity() * std::mem::size_of::<i128>()
            + self.matched.capacity() * std::mem::size_of::<u32>()
    }

    /// Evaluates every node for root `v` and adds the per-node values into
    /// `acc` (length = number of plan nodes). Summing `acc` over all graph
    /// vertices yields the totals [`CountingPlan::finalize`] expects.
    pub fn eval_root(&mut self, v: u32, acc: &mut [i128]) {
        debug_assert_eq!(acc.len(), self.plan.nodes.len());
        // Empty unless the previous evaluation was unwound by a fault part
        // way: then exactly what it left marked is cleared.
        self.marks.clear(self.g);
        // Whatever root the counts were filled for, completed or unwound.
        self.common.clear(self.g);
        if self.root_marks {
            self.marks.mark(self.g, v, 1);
        }
        let nodes = &self.plan.nodes;
        for (i, slot) in acc.iter_mut().enumerate() {
            let val = match &nodes[i].kind {
                PlanKind::Direct { plan, stab_size } => {
                    (self.rooted_count(plan, v) as i128).checked_mul(*stab_size as i128)
                }
                PlanKind::Product {
                    left,
                    right,
                    corrections,
                } => product_value(*left, *right, corrections, &self.vals),
            }
            .unwrap_or_else(|| overflow(i));
            debug_assert!(val >= 0, "per-root embedding count is non-negative");
            self.vals[i] = val;
            *slot = slot.checked_add(val).unwrap_or_else(|| overflow(i));
        }
        if self.root_marks {
            self.marks.unmark_last(self.g);
        }
        debug_assert!(
            self.marks.is_clear(),
            "every mark is cleared by the level that set it"
        );
    }

    /// Drains the kernel counters accumulated since the last take.
    pub fn take_counters(&mut self) -> KernelCounters {
        self.counters.take()
    }

    /// Drains the extension-candidate count (one per accepted DFS
    /// candidate) accumulated since the last take.
    pub fn take_ec(&mut self) -> u64 {
        std::mem::take(&mut self.ec)
    }

    /// Rooted symmetry-broken DFS of one direct node: the number of
    /// injective embeddings of `plan.pattern()` with position 0 pinned to
    /// `root`, restricted to the plan's symmetry-condition representatives.
    /// The root's own marks are the caller's (they are shared by every node
    /// of the plan).
    fn rooted_count(&mut self, plan: &ExplorationPlan, root: u32) -> u64 {
        self.matched.clear();
        self.matched.push(root);
        if plan.len() == 1 {
            self.ec += 1;
            return 1;
        }
        self.dfs(plan, 1)
    }

    /// One DFS level: the accepted candidates at `pos` are the plan's
    /// candidate step minus the matched vertices.
    fn dfs(&mut self, plan: &ExplorationPlan, pos: usize) -> u64 {
        let g = self.g;
        let PlanLevel {
            latest,
            mask,
            sets_mark,
            closes_on_root,
            ..
        } = *plan.level(pos);
        let slice = plan.candidate_slice(g, pos, &self.matched);
        if mask != 0 && !closes_on_root {
            self.counters.bitset_calls += 1;
            self.counters.elements_scanned += slice.len() as u64;
        }

        if pos + 1 == plan.len() {
            // Counted, not walked: a leaf only ever adds 1, so the level is
            // the number of hits in the slice minus the matched vertices
            // among them (injectivity). `ec` grows by what a walk would
            // have accepted one at a time. On a level that closes on the
            // root the hits are `|N(root) ∩ N(matched[latest])|`, read from
            // the root's common-neighbour counts, which the first such
            // level under the root fills.
            let marks = &self.marks;
            let hits = if closes_on_root {
                if self.common.root.is_none() {
                    self.counters.elements_scanned += self.common.fill(g, self.matched[0]);
                }
                self.common.counts[self.matched[latest as usize] as usize] as usize
            } else if mask == 0 {
                slice.len()
            } else {
                slice.iter().filter(|&&u| marks.carries(u, mask)).count()
            };
            let taken = self
                .matched
                .iter()
                .filter(|&&m| marks.carries(m, mask) && slice.binary_search(&m).is_ok())
                .count();
            let accepted = (hits - taken) as u64;
            self.ec += accepted;
            return accepted;
        }

        let bit = 1u32 << pos;
        let mut count = 0u64;
        for &cand in slice {
            if !self.marks.carries(cand, mask) || self.matched.contains(&cand) {
                continue;
            }
            self.ec += 1;
            self.matched.push(cand);
            if sets_mark {
                self.marks.mark(g, cand, bit);
            }
            count += self.dfs(plan, pos + 1);
            if sets_mark {
                self.marks.unmark_last(g);
            }
            self.matched.pop();
        }
        count
    }
}

/// Per-vertex common-neighbour counts of one root `r`: `counts[x]` is
/// `|N(r) ∩ N(x)|`, the hits of a level that closes on `r` and scans
/// `N(x)`. Filled by walking the 2-walks from `r` and cleared by walking
/// them again, so both cost `Σ deg` over `N(r)`, never `O(|V|)`.
#[derive(Debug, Default)]
struct CommonCounts {
    /// One count per graph vertex, grown on the first fill.
    counts: Vec<u32>,
    /// The root the counts are held for. Set before the fill starts, so a
    /// fill unwound part-way is still cleared in full.
    root: Option<u32>,
}

impl CommonCounts {
    /// Fills the counts of root `r` into a clear table; returns the number
    /// of neighbour-slice elements walked.
    fn fill(&mut self, g: &Graph, r: u32) -> u64 {
        debug_assert!(self.root.is_none(), "fill over held counts");
        if self.counts.len() < g.num_vertices() {
            self.counts.resize(g.num_vertices(), 0);
        }
        self.root = Some(r);
        let mut walked = 0;
        for &a in g.neighbors(VertexId(r)) {
            let nbrs = g.neighbors(VertexId(a));
            walked += nbrs.len() as u64;
            for &x in nbrs {
                self.counts[x as usize] += 1;
            }
        }
        walked
    }

    /// Zeroes the counts of the root held, if any.
    fn clear(&mut self, g: &Graph) {
        if let Some(r) = self.root.take() {
            for &a in g.neighbors(VertexId(r)) {
                for &x in g.neighbors(VertexId(a)) {
                    self.counts[x as usize] = 0;
                }
            }
        }
    }

    fn resident_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
    }
}

/// Stops a count that left `i128`, naming the plan node it was computing:
/// release builds would otherwise wrap it and finalize a wrong count.
fn overflow(node: usize) -> ! {
    panic!("plan node {node}: count overflows i128")
}

/// A product node's per-root value from the values `vals` of the nodes
/// before it: `vals[left] · vals[right] − Σ m · vals[c]` over its `(m, c)`
/// inclusion–exclusion corrections. `None` when a step leaves `i128`.
pub fn product_value(
    left: usize,
    right: usize,
    corrections: &[(u64, usize)],
    vals: &[i128],
) -> Option<i128> {
    let mut val = vals[left].checked_mul(vals[right])?;
    for &(m, c) in corrections {
        val = val.checked_sub((m as i128).checked_mul(vals[c])?)?;
    }
    Some(val)
}

/// Adds per-node totals `from` into `into` (the same plan's nodes), every
/// sum checked.
pub fn add_totals(into: &mut [i128], from: &[i128]) {
    debug_assert_eq!(into.len(), from.len());
    for (node, (t, &v)) in into.iter_mut().zip(from).enumerate() {
        *t = t.checked_add(v).unwrap_or_else(|| overflow(node));
    }
}

/// Evaluates `plan` over every vertex of `g` single-threaded, returning the
/// per-node totals plus the drained kernel counters and extension count.
/// The engine's parallel path (`fractal-core::plan_run`) partitions the
/// same loop over root words instead.
pub fn count_all_roots(g: &Graph, plan: &CountingPlan) -> (Vec<i128>, KernelCounters, u64) {
    let mut exec = PlanExecutor::new(g, plan);
    let mut acc = vec![0i128; plan.nodes.len()];
    for v in 0..g.num_vertices() as u32 {
        exec.eval_root(v, &mut acc);
    }
    (acc, exec.take_counters(), exec.take_ec())
}

/// Decomposed induced `k`-motif counting (single-threaded convenience):
/// plans against `g`'s statistics, evaluates every root, and finalizes.
/// Bit-identical to the enumerator's motif map on every input.
pub fn motifs_decomposed(g: &Graph, k: usize) -> Vec<(CanonicalCode, u64)> {
    let plan = CountingPlan::plan_motifs(k, crate::planner::GraphStats::of(g));
    let (totals, _, _) = count_all_roots(g, &plan);
    plan.finalize(&totals)
}

/// Decomposed non-induced count of one connected unlabeled pattern
/// (single-threaded convenience). Matches the enumerator's symmetry-broken
/// match count.
pub fn count_pattern_decomposed(g: &Graph, p: &Pattern) -> u64 {
    let plan = CountingPlan::plan_pattern(p, crate::planner::GraphStats::of(g));
    let (totals, _, _) = count_all_roots(g, &plan);
    plan.finalize(&totals)[0].1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autom::{automorphisms, orbit, stabilizer};
    use crate::canon::canonical_code;
    use crate::decompose::{connected_shapes, RootedPattern};
    use crate::planner::{GraphStats, PlanNode};
    use crate::symmetry::SymmetryConditions;
    use fractal_graph::builder::graph_from_edges;
    use fractal_graph::kernels::{intersect, seek_above, seek_below};
    use fractal_graph::VertexId;
    use proptest::prelude::*;

    fn complete_graph(n: u32) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v, 0));
            }
        }
        graph_from_edges(&vec![0; n as usize], &edges)
    }

    fn path_graph(n: u32) -> Graph {
        let edges: Vec<(u32, u32, u32)> = (1..n).map(|v| (v - 1, v, 0)).collect();
        graph_from_edges(&vec![0; n as usize], &edges)
    }

    #[test]
    fn product_values_are_exact_past_i64_and_none_past_i128() {
        // 2^40 · 2^40 − 3 · 2^50 is past i64.
        let vals = [1i128 << 40, 1 << 40, 1 << 50];
        let want = (1 << 80) - 3 * (1 << 50);
        assert_eq!(product_value(0, 1, &[(3, 2)], &vals), Some(want));
        // Past i128: the product, a correction term, and the difference of
        // two terms that fit.
        assert_eq!(product_value(0, 1, &[], &[1 << 64, 1 << 64]), None);
        assert_eq!(product_value(0, 0, &[(u64::MAX, 1)], &[1, 1 << 70]), None);
        assert_eq!(product_value(0, 1, &[(1, 2)], &[-1, i128::MAX, 2]), None);
    }

    #[test]
    #[should_panic(expected = "plan node 1: count overflows i128")]
    fn a_total_past_i128_names_its_node() {
        let mut totals = [i64::MAX as i128, i128::MAX - 1];
        add_totals(&mut totals, &[1, 1]);
        assert_eq!(totals, [i64::MAX as i128 + 1, i128::MAX]);
        add_totals(&mut totals, &[0, 1]);
    }

    #[test]
    fn triangles_in_k4() {
        assert_eq!(
            count_pattern_decomposed(&complete_graph(4), &Pattern::clique(3)),
            4
        );
        assert_eq!(
            count_pattern_decomposed(&complete_graph(5), &Pattern::clique(3)),
            10
        );
        assert_eq!(
            count_pattern_decomposed(&complete_graph(5), &Pattern::clique(4)),
            5
        );
    }

    #[test]
    fn paths_and_stars() {
        // Path graph 0-1-2-3: two P3 subgraphs, one P4.
        let g = path_graph(4);
        assert_eq!(count_pattern_decomposed(&g, &Pattern::path(3)), 2);
        assert_eq!(count_pattern_decomposed(&g, &Pattern::path(4)), 1);
        assert_eq!(count_pattern_decomposed(&g, &Pattern::star(3)), 0);
        // Star graph: center 0 with 3 leaves.
        let s = graph_from_edges(&[0, 0, 0, 0], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        assert_eq!(count_pattern_decomposed(&s, &Pattern::star(3)), 1);
        assert_eq!(count_pattern_decomposed(&s, &Pattern::path(3)), 3);
    }

    #[test]
    fn motif_maps_omit_zero_shapes() {
        // K4: only the triangle motif appears at k = 3.
        let m = motifs_decomposed(&complete_graph(4), 3);
        assert_eq!(m, vec![(canonical_code(&Pattern::clique(3)), 4)]);
        // Path 0-1-2-3: only the open wedge.
        let m = motifs_decomposed(&path_graph(4), 3);
        assert_eq!(m, vec![(canonical_code(&Pattern::path(3)), 2)]);
    }

    #[test]
    fn kernel_and_ec_counters_accumulate() {
        let g = complete_graph(6);
        let plan = CountingPlan::plan_pattern(&Pattern::clique(4), crate::GraphStats::of(&g));
        let (_, kc, ec) = count_all_roots(&g, &plan);
        assert!(kc.bitset_calls > 0, "clique levels test earlier back edges");
        assert_eq!(kc.merge_calls + kc.gallop_calls, 0);
        assert!(ec > 0);
    }

    /// Deterministic LCG graph for brute-force cross-checks.
    fn lcg_graph(n: u32, seed: u64, density_pct: u64) -> Graph {
        let mut edges = Vec::new();
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for u in 0..n {
            for v in (u + 1)..n {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (s >> 33) % 100 < density_pct {
                    edges.push((u, v, 0));
                }
            }
        }
        graph_from_edges(&vec![0; n as usize], &edges)
    }

    /// Brute-force N_sub: injective homomorphisms / |Aut|.
    fn brute_count(g: &Graph, p: &Pattern) -> u64 {
        let mut homs = 0u64;
        let mut map: Vec<u32> = Vec::new();
        fn rec(g: &Graph, p: &Pattern, map: &mut Vec<u32>, homs: &mut u64) {
            let pos = map.len();
            if pos == p.num_vertices() {
                *homs += 1;
                return;
            }
            for v in 0..g.num_vertices() as u32 {
                if map.contains(&v) {
                    continue;
                }
                let ok = (0..pos)
                    .all(|u| !p.adjacent(u, pos) || g.are_adjacent(VertexId(map[u]), VertexId(v)));
                if ok {
                    map.push(v);
                    rec(g, p, map, homs);
                    map.pop();
                }
            }
        }
        rec(g, p, &mut map, &mut homs);
        homs / crate::autom::automorphisms(p).len() as u64
    }

    #[test]
    fn decomposed_counts_match_brute_force() {
        for (seed, density) in [(1u64, 40), (5, 65)] {
            let g = lcg_graph(9, seed, density);
            for k in 2..=4usize {
                for shape in connected_shapes(k) {
                    assert_eq!(
                        count_pattern_decomposed(&g, &shape),
                        brute_count(&g, &shape),
                        "seed={seed} shape={shape}"
                    );
                }
            }
        }
    }

    /// The walk this executor replaced, kept as the reference: candidates
    /// are the back-edge neighbourhoods folded through the merge/gallop
    /// kernels, and every leaf is visited to add 1. Returns the rooted
    /// count and the extension count of one root.
    fn reference_rooted_count(g: &Graph, plan: &ExplorationPlan, root: u32) -> (u64, u64) {
        fn dfs(
            g: &Graph,
            plan: &ExplorationPlan,
            pos: usize,
            matched: &mut Vec<u32>,
            ec: &mut u64,
        ) -> u64 {
            let lo = plan.must_be_greater_than(pos);
            let lo = lo.map(|p| matched[p as usize]).max();
            let hi = plan.must_be_less_than(pos);
            let hi = hi.map(|p| matched[p as usize]).min();
            let (&(first, _), rest) = plan.back_edges(pos).split_first().unwrap();
            let mut cands = g.neighbors(VertexId(matched[first as usize])).to_vec();
            if let Some(lo) = lo {
                cands = seek_above(&cands, lo).to_vec();
            }
            let (mut out, mut c) = (Vec::new(), KernelCounters::default());
            for &(bp, _) in rest {
                let nbrs = g.neighbors(VertexId(matched[bp as usize]));
                intersect(&cands, nbrs, &mut out, &mut c);
                std::mem::swap(&mut cands, &mut out);
            }
            if let Some(hi) = hi {
                cands.truncate(seek_below(&cands, hi).len());
            }
            let mut count = 0;
            for cand in cands {
                if matched.contains(&cand) {
                    continue;
                }
                *ec += 1;
                if pos + 1 == plan.len() {
                    count += 1;
                } else {
                    matched.push(cand);
                    count += dfs(g, plan, pos + 1, matched, ec);
                    matched.pop();
                }
            }
            count
        }
        if plan.len() == 1 {
            return (1, 1);
        }
        let mut ec = 0;
        let count = dfs(g, plan, 1, &mut vec![root], &mut ec);
        (count, ec)
    }

    /// A plan of one direct node: `p` rooted at `order[0]`, matched in
    /// `order`, under the root stabilizer's symmetry conditions (what
    /// `PlanBuilder::direct` compiles, with the order given).
    fn single_node_plan(p: &Pattern, order: Vec<u8>, g: &Graph) -> CountingPlan {
        let root = order[0];
        let stab = stabilizer(&automorphisms(p), root as usize);
        let stab_size = stab.len() as u64;
        let conditions = SymmetryConditions::for_group(p.num_vertices(), stab);
        CountingPlan {
            nodes: vec![PlanNode {
                rooted: RootedPattern::new(p.clone(), root),
                kind: PlanKind::Direct {
                    plan: Box::new(ExplorationPlan::with_order(p, order, conditions)),
                    stab_size,
                },
                est_cost: 0.0,
            }],
            outputs: Vec::new(),
            basis: None,
            k: p.num_vertices(),
            stats: GraphStats::of(g),
        }
    }

    /// A connected matching order of `p` from `root`; `seed` picks among the
    /// attachable vertices at every step.
    fn seeded_order(p: &Pattern, root: u8, mut seed: u64) -> Vec<u8> {
        let n = p.num_vertices();
        let mut order = vec![root];
        while order.len() < n {
            let open: Vec<u8> = (0..n as u8)
                .filter(|v| !order.contains(v))
                .filter(|&v| order.iter().any(|&u| p.adjacent(u as usize, v as usize)))
                .collect();
            order.push(open[(seed % open.len() as u64) as usize]);
            seed = seed / open.len() as u64 + 0x9e37;
        }
        order
    }

    fn direct_plan(plan: &CountingPlan) -> (&ExplorationPlan, u64) {
        match &plan.nodes[0].kind {
            PlanKind::Direct { plan, stab_size } => (plan, *stab_size),
            PlanKind::Product { .. } => unreachable!("single_node_plan builds a direct node"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every connected shape of 2..=5 vertices, rooted in every orbit
        /// and matched in a seeded order: the marked, leaf-counting executor
        /// (whose levels that close on the root read the common-neighbour
        /// counts, refilled root after root) returns the reference walk's
        /// count and `ec` for every root, and leaves no mark behind.
        #[test]
        fn marks_and_counted_leaves_equal_the_walked_merge_fold(
            n in 2u32..=10,
            bits in proptest::collection::vec(any::<bool>(), 45),
            order_seed in any::<u64>(),
        ) {
            let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v, 0)));
            let edges: Vec<(u32, u32, u32)> =
                pairs.zip(&bits).filter(|(_, &on)| on).map(|(e, _)| e).collect();
            let g = graph_from_edges(&vec![0; n as usize], &edges);
            for shape in (2..=5).flat_map(connected_shapes) {
                let auts = automorphisms(&shape);
                for root in 0..shape.num_vertices() {
                    if orbit(&auts, root)[0] as usize != root {
                        continue;
                    }
                    let order = seeded_order(&shape, root as u8, order_seed);
                    let plan = single_node_plan(&shape, order.clone(), &g);
                    let (direct, stab_size) = direct_plan(&plan);
                    let mut exec = PlanExecutor::new(&g, &plan);
                    for v in 0..n {
                        let mut acc = [0i128];
                        exec.eval_root(v, &mut acc);
                        let (count, ec) = reference_rooted_count(&g, direct, v);
                        prop_assert_eq!(
                            (acc[0], exec.take_ec()),
                            ((count * stab_size) as i128, ec),
                            "shape={} order={:?} root vertex={}", shape, order, v
                        );
                        prop_assert!(exec.marks.is_clear());
                        prop_assert!(exec.common.root.unwrap_or(v) == v);
                    }
                }
            }
        }
    }

    /// Whether the deepest level of `plan` closes on the root unbounded,
    /// read from its back edges and conditions rather than its level table.
    fn closes_on_root_unbounded(plan: &ExplorationPlan) -> bool {
        let last = plan.len() - 1;
        let back: Vec<u8> = plan.back_edges(last).iter().map(|&(p, _)| p).collect();
        let bounded = plan
            .must_be_less_than(last)
            .chain(plan.must_be_greater_than(last));
        back.len() == 2 && back[0] == 0 && bounded.count() == 0
    }

    /// A plan of `node` alone, for evaluating one direct node of a larger
    /// plan by itself.
    fn alone(node: &PlanNode, of: &CountingPlan) -> CountingPlan {
        CountingPlan {
            nodes: vec![node.clone()],
            outputs: Vec::new(),
            basis: None,
            k: node.rooted.len(),
            stats: of.stats,
        }
    }

    /// On the bench-shaped graph, the 5-motif plan counts exactly the
    /// deepest levels whose only earlier back edge is the root and which
    /// carry no bound from the root's common-neighbour counts, the 5-cycle
    /// among them, scans the bounded ones, and `describe` marks the counted
    /// ones. The 5-cycle node alone then makes no mask scan: what it reads
    /// is each root's fill, the 2-walks from that root.
    #[test]
    fn exactly_the_unbounded_root_closing_levels_are_counted_per_root() {
        let g = fractal_graph::gen::patents_like(1600, 1, 2019);
        let plan = CountingPlan::plan_motifs(5, GraphStats::of(&g));
        let (mut counted, mut bounded) = (Vec::new(), 0);
        let described = plan.describe();
        for (i, node) in plan.nodes.iter().enumerate() {
            let PlanKind::Direct { plan: direct, .. } = &node.kind else {
                continue;
            };
            let closes = closes_on_root_unbounded(direct);
            let deepest = direct.level(direct.len() - 1);
            assert_eq!(deepest.closes_on_root, closes, "node {i}: {}", node.rooted);
            let line = described
                .lines()
                .find(|l| l.starts_with(&format!("  node {i}: ")))
                .expect("every node is described");
            assert_eq!(line.ends_with(" closing=per-root-counts"), closes, "{line}");
            if closes {
                counted.push(i);
            } else if deepest.mask == 1 && deepest.latest != 0 {
                bounded += 1;
            }
        }
        assert!(
            bounded > 0,
            "a bounded root closure must be there to stay scanned"
        );
        let cycle = canonical_code(&Pattern::cycle(5));
        let cycle = plan
            .nodes
            .iter()
            .position(|n| canonical_code(&n.rooted.pattern) == cycle)
            .expect("the 5-motif plan counts the 5-cycle");
        assert!(counted.contains(&cycle), "{counted:?} lacks the 5-cycle");

        let (_, kc, _) = count_all_roots(&g, &alone(&plan.nodes[cycle], &plan));
        let two_walks: u64 = (0..g.num_vertices() as u32)
            .map(|a| (g.degree(VertexId(a)) as u64).pow(2))
            .sum();
        assert_eq!(
            kc.bitset_calls, 0,
            "the 5-cycle scans no slice against a mask"
        );
        assert_eq!(kc.elements_scanned, two_walks, "one fill per root");
    }

    /// Every direct node of the 5-motif plan on a small hub-heavy graph,
    /// each evaluated alone by one executor over every root in turn: its
    /// value and `ec` equal the scanned walk's for every root, whether its
    /// closing level is read from the common-neighbour counts or scanned.
    #[test]
    fn every_direct_node_equals_the_scanned_walk_on_a_hub_heavy_graph() {
        let g = fractal_graph::gen::orkut_like(40, 3);
        let plan = CountingPlan::plan_motifs(5, GraphStats::of(&g));
        let (mut counted, mut scanned) = (0, 0);
        for node in &plan.nodes {
            let PlanKind::Direct {
                plan: direct,
                stab_size,
            } = &node.kind
            else {
                continue;
            };
            let deepest = direct.level(direct.len() - 1);
            counted += deepest.closes_on_root as usize;
            scanned += (deepest.mask != 0 && !deepest.closes_on_root) as usize;
            let single = alone(node, &plan);
            let mut exec = PlanExecutor::new(&g, &single);
            for v in 0..g.num_vertices() as u32 {
                let mut acc = [0i128];
                exec.eval_root(v, &mut acc);
                let (count, ec) = reference_rooted_count(&g, direct, v);
                assert_eq!(
                    (acc[0], exec.take_ec()),
                    ((count * stab_size) as i128, ec),
                    "{} root vertex {v}",
                    node.rooted
                );
            }
        }
        assert!(
            counted > 0 && scanned > 0,
            "{counted} counted, {scanned} scanned"
        );
    }

    /// Twelve positions: a path 0-1-…-8 ending in the 4-clique {8, 9, 10, 11},
    /// matched in vertex order, so position 10 tests bit 8 and position 11
    /// tests bits 8 and 9 — marks above the low byte of the word. (With `n`
    /// positions the highest bit ever tested is `n - 3`: the leaf scans
    /// position `n - 2` and masks at most `n - 3`.)
    #[test]
    fn marks_above_the_low_byte_match_brute_force() {
        let mut pedges: Vec<(u8, u8, u32)> = (1..=9).map(|v| (v - 1, v, 0)).collect();
        pedges.extend([(8, 10, 0), (9, 10, 0), (8, 11, 0), (9, 11, 0), (10, 11, 0)]);
        let p = Pattern::new(vec![0; 12], pedges);
        // A path 0-…-8 into a 5-clique on 8..=12, and chords that give the
        // path detours and the clique more than one way in.
        let mut edges: Vec<(u32, u32, u32)> = (1..=8).map(|v| (v - 1, v, 0)).collect();
        for u in 8..=12 {
            edges.extend((u + 1..=12).map(|v| (u, v, 0)));
        }
        edges.extend([(0, 13, 0), (1, 13, 0), (2, 9, 0), (5, 11, 0), (7, 12, 0)]);
        let g = graph_from_edges(&[0; 14], &edges);
        let plan = single_node_plan(&p, (0..12).collect(), &g);
        let direct = direct_plan(&plan).0;
        assert_eq!(direct.level(10).mask, 1 << 8);
        assert_eq!(direct.level(11).mask, 1 << 8 | 1 << 9);
        assert!(direct.level(8).sets_mark && direct.level(9).sets_mark);
        assert!(!direct.level(10).sets_mark);
        let (totals, _, _) = count_all_roots(&g, &plan);
        let aut = automorphisms(&p).len() as i128;
        let want = brute_count(&g, &p);
        assert!(
            want > 0,
            "the graph must hold the pattern for the test to bite"
        );
        assert_eq!(totals[0], want as i128 * aut);
    }

    /// An evaluation that is unwound part-way leaves whatever it had marked
    /// and matched; the next `eval_root` must see neither.
    #[test]
    fn an_unwound_evaluation_leaves_nothing_for_the_next_root() {
        let g = lcg_graph(14, 9, 45);
        let plan = CountingPlan::plan_motifs(5, GraphStats::of(&g));
        let mut clean = PlanExecutor::new(&g, &plan);
        let mut unwound = PlanExecutor::new(&g, &plan);
        // What a panic between a mark and its clear leaves behind: the
        // root's neighbourhood and two deeper ones, overlapping.
        unwound.matched.extend([3, 1, 4]);
        for (v, bit) in [(3, 1), (1, 1 << 1), (4, 1 << 2), (1, 1 << 9)] {
            unwound.marks.mark(&g, v, bit);
        }
        assert!(!unwound.marks.is_clear());
        // And the common-neighbour counts of a root other than the first.
        assert!(unwound.common.fill(&g, 3) > 0);
        let n = plan.nodes.len();
        for v in 0..g.num_vertices() as u32 {
            let (mut a, mut b) = (vec![0i128; n], vec![0i128; n]);
            clean.eval_root(v, &mut a);
            unwound.eval_root(v, &mut b);
            assert_eq!(a, b, "root {v}");
            assert_eq!(clean.take_ec(), unwound.take_ec(), "root {v}");
            assert!(unwound.marks.is_clear(), "root {v}");
            assert!(unwound.common.root.unwrap_or(v) == v, "root {v}");
        }
        // The marks and the counts, 4 bytes a vertex each, are reported.
        assert!(unwound.resident_bytes() >= 8 * g.num_vertices());
    }
}
