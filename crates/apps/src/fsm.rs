//! Frequent subgraph mining (§2.2, Listing 3) with minimum image-based
//! support [7].
//!
//! FSM grows edge-induced subgraphs level by level; after each level a
//! global aggregation computes, per pattern, the *domain* of graph vertices
//! seen at each canonical pattern position; the support is the minimum
//! domain size, which is anti-monotone. An aggregation filter prunes
//! subgraphs whose pattern fell below the threshold — the W4
//! synchronization point that makes FSM a multi-step application.
//!
//! Two variants are provided:
//!
//! - [`fsm`] — the exact Listing 3 workflow: one growing fractoid chain,
//!   re-executed from scratch every iteration with computed aggregations
//!   reused (§4.1, Algorithm 2);
//! - [`fsm_with_reduction`] — additionally applies the transparent graph
//!   reduction of §4.3 between iterations, re-materializing the input to
//!   only the vertices/edges that participated in the previous level's
//!   subgraphs. Domains are recorded in original-graph ids so supports are
//!   unaffected by re-indexing.

use fractal_core::{Aggregator, ExecutionReport, FractalGraph, Fractoid};
use fractal_pattern::canon::InternedForm;
use fractal_pattern::CanonicalCode;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// Hashes one `u32` vertex id with one multiply. Vertex ids are dense, and
/// the hash table takes its control byte from the hash's top bits, so the
/// identity would not do; an odd multiplier spreads every id bit upwards.
/// The multiplier is drawn once per process, so a served graph cannot be
/// crafted to collide.
#[derive(Debug, Default, Clone, Copy)]
pub struct VertexHasher(u64);

impl Hasher for VertexHasher {
    #[inline]
    fn write_u32(&mut self, v: u32) {
        static MULTIPLIER: OnceLock<u64> = OnceLock::new();
        let m = *MULTIPLIER.get_or_init(|| RandomState::new().hash_one(0u32) | 1);
        self.0 = (v as u64).wrapping_mul(m);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("VertexHasher hashes u32 vertex ids only");
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The set of graph vertices seen at one canonical pattern position.
pub type Domain = HashSet<u32, BuildHasherDefault<VertexHasher>>;

/// Minimum image-based support: one vertex domain per canonical pattern
/// position (the paper's `DomainSupport`).
#[derive(Debug, Clone, Default)]
pub struct DomainSupport {
    domains: Vec<Domain>,
}

impl DomainSupport {
    /// The support of a pattern of `positions` vertices with no embedding
    /// inserted yet.
    pub fn empty(positions: usize) -> Self {
        DomainSupport {
            domains: vec![Domain::default(); positions],
        }
    }

    /// Inserts one embedding: each of the subgraph's `vertices` (insertion
    /// order) lands in the domain of its canonical pattern position, read off
    /// `form` (the subgraph's canonical form). Vertex ids are translated to
    /// the original input graph via `fg` so reductions between steps don't
    /// skew supports.
    ///
    /// Positions in the same automorphism orbit have identical domains
    /// under exact minimum-image support; folding each vertex into its
    /// orbit representative makes the computed support exact (and therefore
    /// anti-monotone) even though each subgraph instance is enumerated with
    /// a single canonical mapping.
    #[inline]
    pub fn insert(&mut self, vertices: &[u32], form: InternedForm<'_>, fg: &FractalGraph) {
        for (&v, &pos) in vertices.iter().zip(form.perm) {
            self.domains[form.orbit_reps[pos as usize] as usize].insert(fg.orig_vertex(v));
        }
    }

    /// Positionwise domain union that moves `other`'s vertices out, leaving
    /// it empty with its tables allocated (the staged support of a unit is
    /// absorbed on commit and refilled by the next unit).
    pub fn absorb(&mut self, other: &mut DomainSupport) {
        if self.domains.len() < other.domains.len() {
            self.domains
                .resize_with(other.domains.len(), Domain::default);
        }
        for (mine, theirs) in self.domains.iter_mut().zip(&mut other.domains) {
            mine.extend(theirs.drain());
        }
    }

    /// Positionwise domain union (the aggregation's reduce function).
    pub fn merge(&mut self, mut other: DomainSupport) {
        self.absorb(&mut other);
    }

    /// The minimum image-based support: min over orbit-representative
    /// positions of the domain size. Non-representative positions are
    /// always empty (their vertices fold into the representative) and are
    /// skipped.
    pub fn support(&self) -> u64 {
        self.domains
            .iter()
            .filter(|d| !d.is_empty())
            .map(|d| d.len() as u64)
            .min()
            .unwrap_or(0)
    }

    /// Whether the support meets `threshold` (the paper's
    /// `hasEnoughSupport`).
    pub fn has_enough_support(&self, threshold: u64) -> bool {
        self.support() >= threshold
    }

    /// The per-position vertex domains (wire serialization support).
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Rebuilds a support from decoded domains — the inverse of
    /// [`DomainSupport::domains`].
    pub fn from_domains(domains: Vec<Domain>) -> Self {
        DomainSupport { domains }
    }
}

/// One frequent pattern in the result set.
#[derive(Debug, Clone)]
pub struct FrequentPattern {
    /// The canonical pattern.
    pub code: CanonicalCode,
    /// Its exact minimum-image support.
    pub support: u64,
    /// Number of edges of the pattern.
    pub num_edges: usize,
}

/// The FSM result: all frequent patterns plus per-iteration reports.
#[derive(Debug, Default)]
pub struct FsmResult {
    /// Frequent patterns, grouped by the iteration that found them.
    pub frequent: Vec<FrequentPattern>,
    /// One execution report per mining iteration.
    pub reports: Vec<ExecutionReport>,
}

impl FsmResult {
    /// Patterns of a given edge count.
    pub fn of_size(&self, num_edges: usize) -> Vec<&FrequentPattern> {
        self.frequent
            .iter()
            .filter(|p| p.num_edges == num_edges)
            .collect()
    }

    /// Largest frequent pattern size found.
    pub fn max_size(&self) -> usize {
        self.frequent.iter().map(|p| p.num_edges).max().unwrap_or(0)
    }
}

/// Exact FSM per Listing 3: bootstrap on single edges, then repeatedly
/// `filter_agg` + `expand(1)` + `aggregate` until no pattern of the
/// current size is frequent (or `max_edges` is reached).
pub fn fsm(fg: &FractalGraph, min_support: u64, max_edges: usize) -> FsmResult {
    let mut result = FsmResult::default();
    if max_edges == 0 {
        return result;
    }
    let mut fractoid = fsm_fractoid(fg, min_support, 1);
    let mut size = 1;
    loop {
        result.reports.push(fractoid.execute());
        let frequent = fractoid.aggregation::<CanonicalCode, DomainSupport>("support");
        for (code, sup) in &frequent {
            result.frequent.push(FrequentPattern {
                code: code.clone(),
                support: sup.support(),
                num_edges: size,
            });
        }
        if frequent.is_empty() || size >= max_edges {
            break;
        }
        size += 1;
        fractoid = grow_round(fractoid, fg, min_support);
    }
    result
}

/// The FSM support aggregator as a standalone spec: canonical pattern →
/// positionwise domain union, with the `hasEnoughSupport` final filter.
/// Distributed drivers and workers use it to move `DomainSupport` maps
/// across the shard/wire boundary with the exact same semantics as the
/// local workflow.
pub fn fsm_support_aggregator(
    fg: &FractalGraph,
    min_support: u64,
) -> Aggregator<CanonicalCode, DomainSupport> {
    let fgc = fg.clone();
    Aggregator::by_pattern(
        "support",
        true,
        true,
        |code| DomainSupport::empty(code.num_vertices()),
        move |sup: &mut DomainSupport, vertices, form| sup.insert(vertices, form, &fgc),
        DomainSupport::absorb,
    )
    .with_filter(move |_, v: &DomainSupport| v.has_enough_support(min_support))
}

/// One FSM growth round appended to `fractoid`: keep subgraphs whose
/// pattern was frequent in the previous round, extend by one edge,
/// aggregate supports.
fn grow_round(fractoid: Fractoid, fg: &FractalGraph, min_support: u64) -> Fractoid {
    fractoid
        .filter_agg("support", |s, agg| {
            s.canonical_form(true, true, |form| {
                agg.contains_key::<CanonicalCode, DomainSupport>(form.code)
            })
        })
        .expand(1)
        .aggregate_spec(Arc::new(fsm_support_aggregator(fg, min_support)))
}

/// The FSM fractoid chain after `rounds` growth iterations (round 1 is the
/// single-edge bootstrap; each further round appends
/// `filter_agg + expand(1) + aggregate`). Distributed workers rebuild this
/// chain each round and seed rounds `1..rounds` positionally with the
/// driver-merged frequent sets, which makes the whole chain one fractal
/// step.
pub fn fsm_fractoid(fg: &FractalGraph, min_support: u64, rounds: usize) -> Fractoid {
    assert!(rounds >= 1, "fsm needs at least one round");
    let mut fractoid = fg
        .efractoid()
        .expand(1)
        .aggregate_spec(Arc::new(fsm_support_aggregator(fg, min_support)));
    for _ in 1..rounds {
        fractoid = grow_round(fractoid, fg, min_support);
    }
    fractoid
}

/// FSM with the transparent graph reduction of §4.3: each iteration mines
/// a freshly materialized graph containing only the vertices/edges that
/// participated in at least one subgraph of the previous iteration. Sound
/// by anti-monotonicity: every instance of a frequent (k+1)-pattern is
/// made of edges participating in k-edge candidate subgraphs.
pub fn fsm_with_reduction(fg: &FractalGraph, min_support: u64, max_edges: usize) -> FsmResult {
    let mut result = FsmResult::default();
    let mut current = fg.clone();
    // Per-size frequent pattern keys, used by the level filter when
    // re-enumerating from scratch.
    let mut frequent_sets: Vec<Arc<HashSet<CanonicalCode>>> = Vec::new();

    for size in 1..=max_edges {
        let sets = frequent_sets.clone();
        let fractoid = current
            .efractoid()
            .expand(1)
            .filter(move |s| {
                let k = s.num_edges();
                k == 0
                    || k > sets.len()
                    || s.canonical_form(true, true, |form| sets[k - 1].contains(form.code))
            })
            .explore(size)
            .aggregate_spec(Arc::new(fsm_support_aggregator(&current, min_support)));
        let report = fractoid.execute_tracking_participation();
        let frequent = fractoid.aggregation::<CanonicalCode, DomainSupport>("support");
        let participation = report.participation.clone();
        result.reports.push(report);
        for (code, sup) in &frequent {
            result.frequent.push(FrequentPattern {
                code: code.clone(),
                support: sup.support(),
                num_edges: size,
            });
        }
        if frequent.is_empty() || size == max_edges {
            break;
        }
        frequent_sets.push(Arc::new(frequent.into_keys().collect()));
        // Materialize the reduced graph for the next iteration.
        if let Some(p) = participation {
            let reduced = current.graph().reduce(&p.vertices, &p.edges);
            current = current.wrap_reduced(reduced);
        }
    }
    result
}

/// Convenience: the frequent patterns as a `(code → support)` map.
pub fn frequent_map(result: &FsmResult) -> HashMap<CanonicalCode, u64> {
    result
        .frequent
        .iter()
        .map(|p| (p.code.clone(), p.support))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_core::{FractalContext, SubgraphView};
    use fractal_graph::builder::graph_from_edges;
    use fractal_graph::gen;
    use fractal_runtime::ClusterConfig;

    fn fg_of(g: fractal_graph::Graph) -> FractalGraph {
        FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(g)
    }

    #[test]
    fn domain_support_merge_and_support() {
        let mut a = DomainSupport {
            domains: vec![
                [1u32, 2].into_iter().collect(),
                [5u32].into_iter().collect(),
            ],
        };
        let b = DomainSupport {
            domains: vec![
                [2u32, 3].into_iter().collect(),
                [6u32].into_iter().collect(),
            ],
        };
        a.merge(b);
        assert_eq!(a.support(), 2); // min(|{1,2,3}|, |{5,6}|)
        assert!(a.has_enough_support(2));
        assert!(!a.has_enough_support(3));
    }

    #[test]
    fn inserting_embeddings_one_at_a_time_builds_the_domains() {
        // Two (0)-(1) edges and two (0)-(0) edges sharing vertex 4.
        let g = graph_from_edges(
            &[0, 1, 0, 1, 0],
            &[(0, 1, 0), (2, 3, 0), (0, 4, 0), (2, 4, 0)],
        );
        let fg = fg_of(g);
        let g = fg.graph();
        let mut got: HashMap<CanonicalCode, DomainSupport> = HashMap::new();
        let mut sg = fractal_enum::Subgraph::new(g);
        for e in 0..g.num_edges() as u32 {
            sg.push_edge(g, e);
            let view = SubgraphView {
                graph: g,
                subgraph: &sg,
            };
            view.canonical_form(true, true, |form| {
                got.entry(form.code.clone())
                    .or_insert_with(|| DomainSupport::empty(form.code.num_vertices()))
                    .insert(view.vertices(), form, &fg)
            });
            sg.pop_edge();
        }
        assert_eq!(got.len(), 2);
        for (code, sup) in &got {
            let pattern = code.to_pattern();
            let want = if pattern.vertex_label(0) == pattern.vertex_label(1) {
                // One orbit: both endpoints of both edges fold into the
                // representative position, the other stays empty.
                vec![[0u32, 2, 4].into_iter().collect(), Domain::default()]
            } else {
                let mut by_label = [[0u32, 2], [1, 3]].map(|d| d.into_iter().collect());
                if pattern.vertex_label(0) == 1 {
                    by_label.reverse();
                }
                by_label.to_vec()
            };
            assert_eq!(sup.domains(), DomainSupport::from_domains(want).domains());
        }
        // Absorbing moves the domains and leaves the source empty but sized.
        let mut all = DomainSupport::default();
        for sup in got.values_mut() {
            let positions = sup.domains().len();
            all.absorb(sup);
            assert_eq!(sup.domains(), DomainSupport::empty(positions).domains());
        }
        // Whichever way the positions line up, the smaller union is a
        // two-vertex by-label domain.
        assert_eq!(all.support(), 2);
    }

    #[test]
    fn single_edge_pattern_support_on_path() {
        // Unlabeled path 0-1-2-3: one 1-edge pattern; domains are
        // {endpoints seen at each canonical position}.
        let fg = fg_of(gen::path(4));
        let r = fsm(&fg, 1, 1);
        assert_eq!(r.frequent.len(), 1);
        let p = &r.frequent[0];
        assert_eq!(p.num_edges, 1);
        // 3 edges; each contributes both endpoints split over 2 positions;
        // support is at least 2 (both positions see >= 2 vertices).
        assert!(p.support >= 2);
    }

    #[test]
    fn labeled_graph_separates_patterns() {
        // Edges: two 0-1 labeled edges, one 0-0 edge (vertex labels).
        let g = graph_from_edges(
            &[0, 1, 0, 1, 0],
            &[(0, 1, 0), (2, 3, 0), (0, 4, 0), (2, 4, 0)],
        );
        let fg = fg_of(g);
        let r = fsm(&fg, 2, 1);
        // Pattern (0)-(1): instances (0,1), (2,3): domains {0,2} and
        // {1,3} -> exact MNI support 2 (frequent).
        // Pattern (0)-(0): instances (0,4), (2,4): both positions share an
        // automorphism orbit, so the merged domain is {0,2,4} -> support 3.
        assert_eq!(r.frequent.len(), 2);
        for p in &r.frequent {
            let pat = p.code.to_pattern();
            let mut labels = vec![pat.vertex_label(0), pat.vertex_label(1)];
            labels.sort_unstable();
            if labels == vec![0, 1] {
                assert_eq!(p.support, 2);
            } else {
                assert_eq!(labels, vec![0, 0]);
                assert_eq!(p.support, 3);
            }
        }
    }

    #[test]
    fn fsm_descends_levels_until_infrequent() {
        // A 4-clique: with threshold 4, the single-edge pattern has
        // support 4; two-edge path support 4; growth continues.
        let fg = fg_of(gen::complete(4));
        let r = fsm(&fg, 4, 3);
        assert!(r.max_size() >= 2, "should mine beyond single edges");
        // With an impossible threshold nothing is frequent.
        let empty = fsm(&fg, 100, 3);
        assert!(empty.frequent.is_empty());
        assert_eq!(empty.reports.len(), 1);
    }

    #[test]
    fn reduction_variant_agrees_with_plain() {
        let g = gen::patents_like(90, 3, 17);
        let fg = fg_of(g);
        for min_sup in [8u64, 20] {
            let plain = frequent_map(&fsm(&fg, min_sup, 3));
            let reduced = frequent_map(&fsm_with_reduction(&fg, min_sup, 3));
            assert_eq!(plain, reduced, "min_sup {min_sup}");
        }
    }

    #[test]
    fn reduction_actually_shrinks_graph() {
        let g = gen::patents_like(120, 4, 23);
        let fg = fg_of(g);
        let r = fsm_with_reduction(&fg, 18, 3);
        // At least two iterations ran and some patterns were found.
        assert!(r.reports.len() >= 2 || r.frequent.is_empty());
    }

    #[test]
    fn supports_are_anti_monotone() {
        let fg = fg_of(gen::mico_like(80, 3, 29));
        let r = fsm(&fg, 5, 3);
        // The max support at size k+1 cannot exceed the max at size k.
        let max_by_size: Vec<u64> = (1..=r.max_size())
            .map(|k| r.of_size(k).iter().map(|p| p.support).max().unwrap_or(0))
            .collect();
        for w in max_by_size.windows(2) {
            assert!(w[1] <= w[0], "supports grew: {max_by_size:?}");
        }
    }
}
