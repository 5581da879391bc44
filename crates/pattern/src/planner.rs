//! Cost-modelled compilation of decomposed counting plans.
//!
//! [`CountingPlan`] is the plan IR of DESIGN.md §14: a topologically ordered
//! DAG of rooted sub-patterns ([`PlanNode`]) in which each node is either
//! counted *directly* (a symmetry-broken rooted DFS compiled to an
//! [`ExplorationPlan`] whose matching order a degree-statistics cost model
//! picks) or as a *product* of two smaller nodes sharing the root, minus the
//! vertex-identification overlap terms of
//! [`crate::decompose::overlap_terms`]. Nodes are memoized by rooted
//! canonical key, so the 21 five-vertex motif shapes share one small DAG.
//!
//! Every node value is a per-root-vertex count, which is what makes the
//! plan executable under the engine's root-word partitioning: a worker sums
//! node values over its slice of roots and the driver adds slices.

use std::collections::HashMap;

use fractal_graph::Graph;

use crate::autom::{automorphism_count, orbit_representatives, StabilizerChain};
use crate::canon::canonical_code;
use crate::decompose::{overlap_terms, split_at_root, MotifBasis, RootedPattern};
use crate::symmetry::SymmetryConditions;
use crate::{CanonicalCode, ExplorationPlan, Pattern};

/// Degree statistics of the input graph feeding the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// `|V(G)|`.
    pub vertices: u64,
    /// `|E(G)|` (undirected).
    pub edges: u64,
    /// Maximum degree.
    pub max_degree: u64,
}

impl GraphStats {
    /// Measures `g`.
    pub fn of(g: &Graph) -> Self {
        GraphStats {
            vertices: g.num_vertices() as u64,
            edges: g.num_edges() as u64,
            max_degree: g.max_degree() as u64,
        }
    }

    /// Average degree `2|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        if self.vertices == 0 {
            0.0
        } else {
            2.0 * self.edges as f64 / self.vertices as f64
        }
    }

    /// Probability two random distinct vertices are adjacent.
    fn selectivity(&self) -> f64 {
        if self.vertices < 2 {
            return 1.0;
        }
        (self.avg_degree() / (self.vertices as f64 - 1.0)).clamp(1e-12, 1.0)
    }
}

/// How one plan node is computed.
#[derive(Debug, Clone)]
pub enum PlanKind {
    /// Symmetry-broken rooted DFS (slice scans against vertex marks, see
    /// [`crate::exec`]).
    Direct {
        /// The compiled matching order (root at position 0). Boxed: a full
        /// exploration plan dwarfs the two-index `Product` variant, and
        /// plans live in a `Vec<PlanNode>` where the large variant would
        /// pad every element.
        plan: Box<ExplorationPlan>,
        /// `|Stab_Aut(root)|`: the conditioned DFS counts one embedding per
        /// stabilizer orbit, so its count times this is `emb_r`.
        stab_size: u64,
    },
    /// Product of two smaller nodes sharing the root, minus overlap terms.
    Product {
        /// Node index of the first side.
        left: usize,
        /// Node index of the second side.
        right: usize,
        /// `(multiplicity, node)` inclusion–exclusion corrections.
        corrections: Vec<(u64, usize)>,
    },
}

/// One memoized rooted sub-pattern of the plan DAG.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The rooted pattern this node counts (per root vertex).
    pub rooted: RootedPattern,
    /// How it is computed.
    pub kind: PlanKind,
    /// Modelled cost of evaluating this node for one root (children
    /// excluded — they are shared and counted once in the plan total).
    pub est_cost: f64,
}

/// One requested count: the unrooted shape, the node whose per-root values
/// sum to `emb(shape)`, and the automorphism correction.
#[derive(Debug, Clone)]
pub struct PlanOutput {
    /// Canonical code of the (unrooted) shape.
    pub code: CanonicalCode,
    /// Index of the node counting it.
    pub node: usize,
    /// `|Aut(shape)|`; `N_sub = emb / aut` exactly.
    pub aut: u64,
    /// The root the planner chose for the shape.
    pub root: u8,
}

/// Planner activity counters surfaced through `fractal-metrics/1`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlannerCounters {
    /// Direct nodes compiled to an exploration plan.
    pub plans_compiled: u64,
    /// Total rooted sub-patterns in the plan DAG.
    pub subpatterns_counted: u64,
    /// Inclusion–exclusion terms: product-node corrections plus non-zero
    /// off-diagonal Möbius coefficients.
    pub ie_terms: u64,
}

/// A compiled decomposed counting plan.
#[derive(Debug, Clone)]
pub struct CountingPlan {
    /// Nodes in topological order (children strictly before parents).
    pub nodes: Vec<PlanNode>,
    /// Requested shape counts; for motif plans these align with
    /// `basis.shapes()`.
    pub outputs: Vec<PlanOutput>,
    /// Möbius basis for induced-motif finalization (`None` for single
    /// pattern plans, which report non-induced counts).
    pub basis: Option<MotifBasis>,
    /// Pattern size.
    pub k: usize,
    /// The statistics the plan was costed against.
    pub stats: GraphStats,
}

struct PlanBuilder {
    stats: GraphStats,
    nodes: Vec<PlanNode>,
    memo: HashMap<CanonicalCode, usize>,
}

impl PlanBuilder {
    fn new(stats: GraphStats) -> Self {
        PlanBuilder {
            stats,
            nodes: Vec::new(),
            memo: HashMap::new(),
        }
    }

    /// Returns the node index counting `rooted`, building it (children
    /// first) if it is not memoized yet.
    fn node_for(&mut self, rooted: RootedPattern) -> usize {
        let key = rooted.key();
        if let Some(&i) = self.memo.get(&key) {
            return i;
        }
        let kind = match split_at_root(&rooted) {
            Some((h1, h2)) => {
                let corrections: Vec<(u64, usize)> = overlap_terms(&h1, &h2)
                    .into_iter()
                    .map(|(q, m)| (m, self.node_for(q)))
                    .collect();
                let left = self.node_for(h1);
                let right = self.node_for(h2);
                PlanKind::Product {
                    left,
                    right,
                    corrections,
                }
            }
            None => self.direct(&rooted),
        };
        let est_cost = match &kind {
            PlanKind::Direct { plan, .. } => direct_cost(plan, &self.stats),
            PlanKind::Product { corrections, .. } => 2.0 + corrections.len() as f64,
        };
        let i = self.nodes.len();
        self.nodes.push(PlanNode {
            rooted,
            kind,
            est_cost,
        });
        self.memo.insert(key, i);
        i
    }

    /// Compiles a direct rooted DFS: root-stabilizer symmetry breaking and
    /// the cheapest connected root-first matching order under the cost
    /// model (exhaustive for small patterns, greedy attachment otherwise).
    fn direct(&self, rooted: &RootedPattern) -> PlanKind {
        let p = &rooted.pattern;
        let chain = StabilizerChain::of(p, &[rooted.root]);
        let stab_size = chain.order();
        let conditions = SymmetryConditions::for_chain(&chain);
        let mut best: Option<(f64, ExplorationPlan)> = None;
        for order in root_first_orders(p, rooted.root) {
            let plan = ExplorationPlan::with_order(p, order, conditions.clone());
            let cost = direct_cost(&plan, &self.stats);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, plan));
            }
        }
        let (_, plan) = best.expect("connected pattern always admits a root-first order");
        PlanKind::Direct {
            plan: Box::new(plan),
            stab_size,
        }
    }
}

/// Connected matching orders starting at `root`: all of them for patterns
/// small enough to enumerate, otherwise the single greedy max-attachment
/// order.
fn root_first_orders(p: &Pattern, root: u8) -> Vec<Vec<u8>> {
    let n = p.num_vertices();
    if n > 8 {
        // Greedy: most already-ordered neighbors, ties by degree then id.
        let mut order = vec![root];
        let mut placed = vec![false; n];
        placed[root as usize] = true;
        while order.len() < n {
            let next = (0..n)
                .filter(|&v| !placed[v])
                .max_by_key(|&v| {
                    let nbrs = order.iter().filter(|&&u| p.adjacent(u as usize, v)).count();
                    (nbrs, p.degree(v), std::cmp::Reverse(v))
                })
                .unwrap();
            order.push(next as u8);
            placed[next] = true;
        }
        return vec![order];
    }
    let mut out = Vec::new();
    let mut order = vec![root];
    let mut used = 1u32 << root;
    fn rec(p: &Pattern, order: &mut Vec<u8>, used: &mut u32, out: &mut Vec<Vec<u8>>) {
        let n = p.num_vertices();
        if order.len() == n {
            out.push(order.clone());
            return;
        }
        for v in 0..n as u8 {
            if *used >> v & 1 == 1 {
                continue;
            }
            if order.iter().any(|&u| p.adjacent(u as usize, v as usize)) {
                order.push(v);
                *used |= 1 << v;
                rec(p, order, used, out);
                *used &= !(1 << v);
                order.pop();
            }
        }
    }
    rec(p, &mut order, &mut used, &mut out);
    out
}

/// Modelled per-root cost of a direct rooted DFS: candidate-set sizes decay
/// with each extra back edge by the graph's edge selectivity, and each
/// back-edge intersection scans an average adjacency list.
fn direct_cost(plan: &ExplorationPlan, stats: &GraphStats) -> f64 {
    let d = stats.avg_degree().max(1.0);
    let sel = stats.selectivity();
    let mut frontier = 1.0f64; // expected partial matches at this depth
    let mut cost = 1.0f64;
    for pos in 1..plan.len() {
        let backs = plan.back_edges(pos).len().max(1);
        cost += frontier * backs as f64 * d;
        let cand = d * sel.powi(backs as i32 - 1);
        frontier *= cand.max(1e-9);
    }
    cost
}

/// Whether the planner supports `p` (the compiled executor matches
/// structure only; labeled patterns stay on the enumerator).
pub fn is_unlabeled(p: &Pattern) -> bool {
    (0..p.num_vertices()).all(|v| p.vertex_label(v) == 0)
        && p.edges().iter().all(|&(_, _, l)| l == 0)
}

impl CountingPlan {
    /// Plans induced `k`-motif counting: one output per connected
    /// `k`-vertex shape, aligned with the Möbius basis, finalized to
    /// induced counts by [`CountingPlan::finalize`].
    pub fn plan_motifs(k: usize, stats: GraphStats) -> Self {
        assert!((1..=5).contains(&k), "motif planning supports 1 ≤ k ≤ 5");
        let basis = MotifBasis::new(k);
        let mut builder = PlanBuilder::new(stats);
        let outputs: Vec<PlanOutput> = basis
            .shapes()
            .iter()
            .map(|shape| output_for(&mut builder, shape))
            .collect();
        CountingPlan {
            nodes: builder.nodes,
            outputs,
            basis: Some(basis),
            k,
            stats,
        }
    }

    /// Plans non-induced counting of a single connected unlabeled pattern
    /// (the subgraph-count `N_sub`, matching the enumerator's
    /// symmetry-broken match count).
    pub fn plan_pattern(p: &Pattern, stats: GraphStats) -> Self {
        assert!(
            p.is_connected(),
            "decomposed counting needs a connected pattern"
        );
        assert!(is_unlabeled(p), "decomposed counting is unlabeled-only");
        let mut builder = PlanBuilder::new(stats);
        let output = output_for(&mut builder, p);
        CountingPlan {
            nodes: builder.nodes,
            outputs: vec![output],
            basis: None,
            k: p.num_vertices(),
            stats,
        }
    }

    /// Planner activity counters for `fractal-metrics/1`.
    pub fn counters(&self) -> PlannerCounters {
        let mut c = PlannerCounters {
            subpatterns_counted: self.nodes.len() as u64,
            ..Default::default()
        };
        for node in &self.nodes {
            match &node.kind {
                PlanKind::Direct { .. } => c.plans_compiled += 1,
                PlanKind::Product { corrections, .. } => c.ie_terms += corrections.len() as u64,
            }
        }
        if let Some(basis) = &self.basis {
            c.ie_terms += basis.ie_terms();
        }
        c
    }

    /// Total modelled per-root cost (each shared node counted once).
    pub fn total_cost(&self) -> f64 {
        self.nodes.iter().map(|n| n.est_cost).sum()
    }

    /// Converts per-root node totals (summed over every graph vertex) into
    /// final `(shape code, count)` pairs: automorphism-corrected, and for
    /// motif plans Möbius-inverted to induced counts with zero-count shapes
    /// omitted (bit-parity with the enumerator's sparse map).
    pub fn finalize(&self, totals: &[i128]) -> Vec<(CanonicalCode, u64)> {
        assert_eq!(totals.len(), self.nodes.len());
        let subs: Vec<u64> = self
            .outputs
            .iter()
            .map(|o| {
                let emb = totals[o.node];
                assert!(emb >= 0, "embedding total must be non-negative");
                let emb = emb as u128;
                assert_eq!(
                    emb % o.aut as u128,
                    0,
                    "emb({:?}) must be divisible by |Aut| = {}",
                    o.code,
                    o.aut
                );
                u64::try_from(emb / o.aut as u128).expect("count fits u64")
            })
            .collect();
        match &self.basis {
            Some(basis) => {
                let inds = basis.induced_from_subgraph(&subs);
                self.outputs
                    .iter()
                    .zip(inds)
                    .filter(|(_, n)| *n != 0)
                    .map(|(o, n)| (o.code.clone(), n))
                    .collect()
            }
            None => self
                .outputs
                .iter()
                .zip(subs)
                .map(|(o, n)| (o.code.clone(), n))
                .collect(),
        }
    }

    /// Human-readable description of the plan (the `fractal plan` verb).
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "counting plan: k={} outputs={} nodes={} est_cost/root={:.1}",
            self.k,
            self.outputs.len(),
            self.nodes.len(),
            self.total_cost()
        );
        let _ = writeln!(
            s,
            "graph stats: |V|={} |E|={} avg_deg={:.2} max_deg={}",
            self.stats.vertices,
            self.stats.edges,
            self.stats.avg_degree(),
            self.stats.max_degree
        );
        for (i, node) in self.nodes.iter().enumerate() {
            match &node.kind {
                PlanKind::Direct { plan, stab_size } => {
                    let order: Vec<String> = (0..plan.len())
                        .map(|pos| plan.vertex_at(pos).to_string())
                        .collect();
                    // A closing level read from the root's common-neighbour
                    // counts instead of scanned (DESIGN.md §14.2).
                    let closing = if plan.level(plan.len() - 1).closes_on_root {
                        " closing=per-root-counts"
                    } else {
                        ""
                    };
                    let _ = writeln!(
                        s,
                        "  node {i}: {} direct order=[{}] conds={} stab={} cost={:.1}{closing}",
                        node.rooted,
                        order.join(","),
                        plan.conditions().len(),
                        stab_size,
                        node.est_cost
                    );
                }
                PlanKind::Product {
                    left,
                    right,
                    corrections,
                } => {
                    let corr: Vec<String> = corrections
                        .iter()
                        .map(|(m, n)| format!("{m}·node{n}"))
                        .collect();
                    let _ = writeln!(
                        s,
                        "  node {i}: {} = node{left} × node{right} − ({})",
                        node.rooted,
                        if corr.is_empty() {
                            "0".to_string()
                        } else {
                            corr.join(" + ")
                        }
                    );
                }
            }
        }
        for o in &self.outputs {
            let _ = writeln!(
                s,
                "  output: node {} root {} |Aut|={} ({} vertices)",
                o.node,
                o.root,
                o.aut,
                self.nodes[o.node].rooted.len()
            );
        }
        let c = self.counters();
        let _ = writeln!(
            s,
            "counters: plans_compiled={} subpatterns_counted={} ie_terms={}",
            c.plans_compiled, c.subpatterns_counted, c.ie_terms
        );
        s
    }
}

/// Chooses the cheapest root for `shape` (one candidate per automorphism
/// orbit, each costed with a throwaway builder) and registers the rooted
/// shape with `builder`.
fn output_for(builder: &mut PlanBuilder, shape: &Pattern) -> PlanOutput {
    let mut best: Option<(f64, u8)> = None;
    for (v, rep) in orbit_representatives(shape).into_iter().enumerate() {
        if rep as usize != v {
            continue; // one representative per orbit
        }
        let mut probe = PlanBuilder::new(builder.stats);
        probe.node_for(RootedPattern::new(shape.clone(), rep));
        let cost: f64 = probe.nodes.iter().map(|n| n.est_cost).sum();
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, rep));
        }
    }
    let (_, root) = best.expect("pattern has at least one vertex");
    let node = builder.node_for(RootedPattern::new(shape.clone(), root));
    PlanOutput {
        code: canonical_code(shape),
        node,
        aut: automorphism_count(shape),
        root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> GraphStats {
        GraphStats {
            vertices: 1000,
            edges: 15000,
            max_degree: 120,
        }
    }

    #[test]
    fn plan_pattern_triangle_is_single_direct() {
        let plan = CountingPlan::plan_pattern(&Pattern::clique(3), stats());
        assert_eq!(plan.nodes.len(), 1);
        assert!(matches!(
            plan.nodes[0].kind,
            PlanKind::Direct { stab_size: 2, .. }
        ));
        let c = plan.counters();
        assert_eq!(c.plans_compiled, 1);
        assert_eq!(c.subpatterns_counted, 1);
        assert_eq!(c.ie_terms, 0);
    }

    #[test]
    fn plan_pattern_star_decomposes() {
        // Star3 rooted at the center: a product node over edge × star2 with
        // one grouped correction.
        let plan = CountingPlan::plan_pattern(&Pattern::star(3), stats());
        let top = plan.outputs[0].node;
        match &plan.nodes[top].kind {
            PlanKind::Product {
                left,
                right,
                corrections,
            } => {
                assert_ne!(left, right);
                assert_eq!(corrections.len(), 1);
                assert_eq!(corrections[0].0, 2);
            }
            k => panic!("expected product at the star root, got {k:?}"),
        }
        // Children come before parents.
        for (i, node) in plan.nodes.iter().enumerate() {
            if let PlanKind::Product {
                left,
                right,
                corrections,
            } = &node.kind
            {
                assert!(*left < i && *right < i);
                assert!(corrections.iter().all(|&(_, n)| n < i));
            }
        }
    }

    #[test]
    fn motif_plan_shares_nodes_across_shapes() {
        let plan = CountingPlan::plan_motifs(5, stats());
        assert_eq!(plan.outputs.len(), 21);
        // The DAG shares sub-patterns: far fewer nodes than 21 shapes would
        // need unshared, and every output resolves in range.
        assert!(plan.nodes.len() >= 21);
        for o in &plan.outputs {
            assert!(o.node < plan.nodes.len());
            assert!(o.aut >= 1);
        }
        let c = plan.counters();
        assert_eq!(c.subpatterns_counted, plan.nodes.len() as u64);
        assert!(c.plans_compiled > 0);
        assert!(c.ie_terms > 0);
        // Dense shapes (clique) stay direct; at least one sparse shape
        // (e.g. the 5-star) decomposes.
        assert!(plan
            .nodes
            .iter()
            .any(|n| matches!(n.kind, PlanKind::Product { .. })));
    }

    #[test]
    fn cost_model_prefers_constrained_orders() {
        // For the diamond (K4 minus an edge) rooted at a degree-3 vertex,
        // every returned order is connected and root-first.
        let p = Pattern::unlabeled(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        let orders = root_first_orders(&p, 0);
        assert!(!orders.is_empty());
        for order in &orders {
            assert_eq!(order[0], 0);
            for pos in 1..order.len() {
                assert!(order[..pos]
                    .iter()
                    .any(|&u| p.adjacent(u as usize, order[pos] as usize)));
            }
        }
        // Denser graphs raise every direct cost.
        let sparse = GraphStats {
            vertices: 1000,
            edges: 2000,
            max_degree: 10,
        };
        let dense = GraphStats {
            vertices: 1000,
            edges: 50000,
            max_degree: 400,
        };
        let ps = CountingPlan::plan_pattern(&p, sparse).total_cost();
        let pd = CountingPlan::plan_pattern(&p, dense).total_cost();
        assert!(pd > ps);
    }

    #[test]
    fn finalize_divides_by_automorphisms() {
        // Triangle plan: emb = 6·N_sub.
        let plan = CountingPlan::plan_pattern(&Pattern::clique(3), stats());
        let mut totals = vec![0i128; plan.nodes.len()];
        totals[plan.outputs[0].node] = 6 * 7;
        let out = plan.finalize(&totals);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, 7);
    }

    #[test]
    fn labeled_patterns_are_rejected() {
        assert!(!is_unlabeled(&Pattern::new(vec![1, 0], vec![(0, 1, 0)])));
        assert!(!is_unlabeled(&Pattern::new(vec![0, 0], vec![(0, 1, 3)])));
        assert!(is_unlabeled(&Pattern::clique(3)));
    }
}
