//! The subgraph enumerator abstraction (Fig. 7) and its three built-in
//! extension strategies.
//!
//! An enumerator knows how to compute the extension candidates of the
//! current subgraph (`compute_extensions`) and how to apply/undo one
//! extension word (`extend`/`retract`). Enumerators may carry custom state
//! (the KClist enumerator of Appendix B keeps per-level candidate sets);
//! when a stolen work unit lands on another core the state is **rebuilt
//! from the prefix** — the "from scratch" philosophy applied to stolen
//! work, which keeps steal messages small (§4.2).

use crate::canonical::{canonical_edge_extension, canonical_vertex_extension};
use crate::subgraph::Subgraph;
use fractal_graph::kernels::seek_above;
use fractal_graph::{EdgeId, Graph, KernelCounters, VertexId};
use fractal_pattern::canon::Level;
use fractal_pattern::plan::Marks;
use fractal_pattern::ExplorationPlan;
use std::sync::Arc;

/// Most words a vertex-induced growth sequence holds: a word carries one
/// adjacency bit per earlier position, and the mask has 32.
pub const MAX_VERTEX_WORDS: usize = 33;

/// Most words an edge-induced growth sequence holds: `Subgraph` keeps local
/// vertex positions in a byte, and 255 edges span at most 256 vertices.
pub const MAX_EDGE_WORDS: usize = 255;

/// A vertex-induced extension word: the vertex, and above it the positions
/// of the prefix it is adjacent to (bit `p`: `sg.vertices()[p]`). The root
/// word of a vertex is its bare id.
#[inline]
pub fn vertex_word(v: u32, mask: u32) -> u64 {
    (mask as u64) << 32 | v as u64
}

/// `(vertex, adjacency mask)` of a [`vertex_word`].
#[inline]
pub fn vertex_word_parts(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// What an enumerator's extension words say on their own
/// ([`SubgraphEnumerator::word_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordKind {
    /// [`vertex_word`]s.
    Vertex,
    /// Edge ids.
    Edge,
}

impl WordKind {
    /// What `word`, one of `sg`'s extensions, adds to `sg`'s quick pattern
    /// under the given label flags, and the vertex it appends to `sg`'s
    /// vertex list, if any, without adding it: enough to name the extended
    /// subgraph. `None` when the word cannot say: a root edge brings both
    /// its endpoints and is not one level over a parent, and a vertex word
    /// holds no edge ids, so it knows its edges but not their labels.
    #[inline(always)]
    pub fn level(
        self,
        g: &Graph,
        sg: &Subgraph,
        word: u64,
        use_vlabels: bool,
        use_elabels: bool,
    ) -> Option<(Level, Option<u32>)> {
        let vlabel = |v: u32| match use_vlabels {
            true => g.vertex_label(VertexId(v)).raw(),
            false => 0,
        };
        match self {
            WordKind::Vertex if use_elabels => None,
            WordKind::Vertex => {
                let (v, mask) = vertex_word_parts(word);
                let label = vlabel(v);
                Some((Level::Vertex { label, mask }, Some(v)))
            }
            WordKind::Edge => {
                let e = EdgeId(word as u32);
                let (s, d) = g.edge_endpoints(e);
                let n = sg.num_vertices();
                let (lo, hi, new_vertex) = match (sg.position_of(s.raw()), sg.position_of(d.raw()))
                {
                    (Some(a), Some(b)) => (a.min(b), a.max(b), None),
                    (Some(a), None) => (a, n, Some(d.raw())),
                    (None, Some(b)) => (b, n, Some(s.raw())),
                    (None, None) => return None,
                };
                let level = Level::Edge {
                    lo: lo as u8,
                    hi: hi as u8,
                    label: if use_elabels {
                        g.edge_label(e).raw()
                    } else {
                        0
                    },
                    new_vertex: new_vertex.map(vlabel),
                };
                Some((level, new_vertex))
            }
        }
    }
}

/// A strategy for growing subgraphs one word at a time (Fig. 7).
///
/// `compute_extensions` returns the number of candidate tests performed —
/// the paper's *extension cost* (EC) metric (§4.3).
pub trait SubgraphEnumerator: Send {
    /// Computes the extension words of `sg` into `out` (cleared first).
    /// Returns the number of candidate tests performed.
    fn compute_extensions(&mut self, g: &Graph, sg: &Subgraph, out: &mut Vec<u64>) -> u64;

    /// Applies extension `word` to `sg` (and any custom state).
    fn extend(&mut self, g: &Graph, sg: &mut Subgraph, word: u64);

    /// Undoes the most recent extension.
    fn retract(&mut self, g: &Graph, sg: &mut Subgraph);

    /// What this enumerator's words say on their own. The engine names a
    /// deepest-level subgraph from its parent through
    /// [`WordKind::level`] instead of `extend` + `retract`. Enumerators whose
    /// words do not say (`None`, the default) have every subgraph
    /// materialised.
    fn word_kind(&self) -> Option<WordKind> {
        None
    }

    /// The longest word sequence this enumerator can grow. The engine
    /// refuses a workflow with more `expand()`s before any core starts.
    fn max_words(&self) -> usize;

    /// Clears custom state (called before rebuilding from a prefix).
    fn reset_state(&mut self, _g: &Graph) {}

    /// Rebuilds `sg` and custom state from a word prefix (stolen work).
    fn rebuild(&mut self, g: &Graph, sg: &mut Subgraph, words: &[u64]) {
        sg.reset();
        self.reset_state(g);
        for &w in words {
            self.extend(g, sg, w);
        }
    }

    /// Drains the kernel-path counters accumulated since the last call
    /// (merge/gallop/bitset invocations, elements scanned, arena
    /// high-water mark). Enumerators that bypass the kernel layer return
    /// the zero default.
    fn take_kernel_counters(&mut self) -> KernelCounters {
        KernelCounters::default()
    }

    /// A fresh clone for another core (shared immutable state may be
    /// reference-counted).
    fn clone_boxed(&self) -> Box<dyn SubgraphEnumerator>;
}

impl Clone for Box<dyn SubgraphEnumerator> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

/// Vertex-induced extension (Fig. 1): add a neighbor vertex plus all its
/// edges into the subgraph, filtered by the canonicality rule.
///
/// Its [`Marks`] hold bit `p` on `N(prefix[p])`. `compute_extensions` makes
/// them follow the subgraph it is given, so `extend`, `retract` and
/// `rebuild` touch no marks and a stolen or unwound unit leaves none stale.
#[derive(Debug, Default, Clone)]
pub struct VertexInducedEnumerator {
    marks: Marks,
}

impl VertexInducedEnumerator {
    /// Creates the enumerator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SubgraphEnumerator for VertexInducedEnumerator {
    fn compute_extensions(&mut self, g: &Graph, sg: &Subgraph, out: &mut Vec<u64>) -> u64 {
        out.clear();
        if sg.num_vertices() == 0 {
            out.extend(0..g.num_vertices() as u64);
            return g.num_vertices() as u64;
        }
        // A candidate's word is the set of prefix positions it is adjacent
        // to: its lowest bit is its anchor `a`, the whole word its induced
        // edges. It is canonical iff `u > max(prefix[0], prefix[a+1..])`, so
        // member `a`'s sorted slice is entered past that bound and keeps the
        // vertices it anchors: each candidate comes out once, from the first
        // list holding it, and nothing is merged.
        let prefix = sg.vertices();
        assert!(
            prefix.len() < MAX_VERTEX_WORDS,
            "a vertex-induced word's mask names at most 32 positions"
        );
        self.marks.follow(g, prefix, u32::MAX);
        for (i, &v) in prefix.iter().enumerate() {
            let bound = prefix[i + 1..].iter().fold(prefix[0], |m, &w| m.max(w));
            for &u in seek_above(g.neighbors(VertexId(v)), bound) {
                let mask = self.marks.word(u);
                if mask.trailing_zeros() as usize != i || sg.has_vertex(u) {
                    continue;
                }
                debug_assert!(canonical_vertex_extension(g, prefix, u));
                out.push(vertex_word(u, mask));
            }
        }
        // The extension cost: the union's vertices that are not members.
        let members = prefix.iter().filter(|&&v| self.marks.word(v) != 0).count();
        (self.marks.covered() as usize - members) as u64
    }

    fn extend(&mut self, g: &Graph, sg: &mut Subgraph, word: u64) {
        let (v, mask) = vertex_word_parts(word);
        sg.push_vertex_induced(g, v, mask);
    }

    fn retract(&mut self, _g: &Graph, sg: &mut Subgraph) {
        sg.pop_vertex_induced();
    }

    fn word_kind(&self) -> Option<WordKind> {
        Some(WordKind::Vertex)
    }

    fn max_words(&self) -> usize {
        MAX_VERTEX_WORDS
    }

    fn clone_boxed(&self) -> Box<dyn SubgraphEnumerator> {
        Box::new(VertexInducedEnumerator::new())
    }
}

/// Edge-induced extension (Fig. 1): add an incident edge, filtered by the
/// canonicality rule over edge ids.
#[derive(Debug, Default, Clone)]
pub struct EdgeInducedEnumerator {
    /// Per member vertex position: index of the earliest prefix edge that
    /// contains it ([`MAX_EDGE_WORDS`] keeps it in a byte).
    first_edge: Vec<u8>,
    sufmax: Vec<u32>,
}

impl EdgeInducedEnumerator {
    /// Creates the enumerator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SubgraphEnumerator for EdgeInducedEnumerator {
    fn compute_extensions(&mut self, g: &Graph, sg: &Subgraph, out: &mut Vec<u64>) -> u64 {
        out.clear();
        if sg.num_edges() == 0 {
            out.extend(0..g.num_edges() as u64);
            return g.num_edges() as u64;
        }
        // The same anchor + suffix-max rule as the vertex enumerator, over
        // edge ids: a candidate edge `e` is adjacent to exactly the prefix
        // edges that contain one of its member endpoints, so its anchor is
        // the earliest prefix edge containing such an endpoint, and `e` is
        // canonical iff `e > prefix[0]` and `e > max(prefix[anchor+1..])`.
        // One pass over each member's `(neighbour, edge)` CSR slice finds
        // every candidate; nothing is copied, merged or probed.
        let prefix = sg.edges();
        let members = sg.vertices();
        assert!(
            prefix.len() < MAX_EDGE_WORDS,
            "an edge-induced subgraph grows to at most {MAX_EDGE_WORDS} edges"
        );
        self.first_edge.clear();
        self.first_edge.resize(members.len(), u8::MAX);
        for (i, &(lo, hi)) in sg.edge_ends().iter().enumerate().rev() {
            self.first_edge[lo as usize] = i as u8;
            self.first_edge[hi as usize] = i as u8;
        }
        self.sufmax.clear();
        self.sufmax.resize(prefix.len(), 0);
        let mut running = 0u32;
        for i in (0..prefix.len()).rev() {
            running = running.max(prefix[i]);
            self.sufmax[i] = running;
        }
        let first = prefix[0];
        let mut tests = 0u64;
        for (at, &v) in members.iter().enumerate() {
            // `push_edge` appends vertices as edges bring them in, so
            // positions are ordered by first edge: of two member endpoints
            // the earlier position holds the anchor.
            let anchor = self.first_edge[at] as usize;
            let later_max = self.sufmax.get(anchor + 1).copied();
            let nbrs = g.neighbors(VertexId(v));
            for (&u, &e) in nbrs.iter().zip(g.incident_edges(VertexId(v))) {
                // An edge between two members is in both their slices: it is
                // taken from the earlier one.
                if sg.has_edge(e) || (sg.has_vertex(u) && members[..at].contains(&u)) {
                    continue;
                }
                tests += 1;
                let canonical = e > first && later_max.is_none_or(|m| m < e);
                debug_assert_eq!(canonical, canonical_edge_extension(g, prefix, e));
                if canonical {
                    out.push(e as u64);
                }
            }
        }
        out.sort_unstable();
        tests
    }

    fn extend(&mut self, g: &Graph, sg: &mut Subgraph, word: u64) {
        sg.push_edge(g, word as u32);
    }

    fn retract(&mut self, _g: &Graph, sg: &mut Subgraph) {
        sg.pop_edge();
    }

    fn word_kind(&self) -> Option<WordKind> {
        Some(WordKind::Edge)
    }

    fn max_words(&self) -> usize {
        MAX_EDGE_WORDS
    }

    fn clone_boxed(&self) -> Box<dyn SubgraphEnumerator> {
        Box::new(EdgeInducedEnumerator::new())
    }
}

/// Pattern-induced extension (Fig. 1): grow matches of a reference pattern
/// position by position along an [`ExplorationPlan`], with Grochow–Kellis
/// symmetry breaking removing automorphic duplicates.
///
/// Candidates come from the plan's candidate step, the one the counting
/// executor takes ([`ExplorationPlan::candidate_slice`] plus a [`Marks`]
/// test). `compute_extensions` makes the marks follow the match it extends,
/// at the positions whose level sets a mark, so no adjacency list is ever
/// intersected and `extend`, `retract` and `rebuild` touch no marks.
#[derive(Clone)]
pub struct PatternEnumerator {
    plan: Arc<ExplorationPlan>,
    /// Whether graph vertex labels must equal pattern vertex labels.
    match_vertex_labels: bool,
    /// Whether graph edge labels must equal pattern edge labels.
    match_edge_labels: bool,
    edge_scratch: Vec<(u8, u32)>,
    marks: Marks,
    /// Bits of the positions whose level sets a mark.
    marking: u32,
}

impl PatternEnumerator {
    /// Builds an enumerator for `plan`, matching labels as configured.
    pub fn new(
        plan: Arc<ExplorationPlan>,
        match_vertex_labels: bool,
        match_edge_labels: bool,
    ) -> Self {
        let marking = (0..plan.len())
            .filter(|&pos| plan.level(pos).sets_mark)
            .fold(0, |m, pos| m | 1 << pos);
        PatternEnumerator {
            plan,
            match_vertex_labels,
            match_edge_labels,
            edge_scratch: Vec::new(),
            marks: Marks::default(),
            marking,
        }
    }

    /// Whether `cand`, adjacent to every back edge's match at `pos`, has the
    /// labels the plan asks for there. Only labels being matched are read.
    fn labels_ok(&self, g: &Graph, matched: &[u32], pos: usize, cand: u32) -> bool {
        if self.match_vertex_labels
            && g.vertex_label(VertexId(cand)).raw() != self.plan.label_at(pos)
        {
            return false;
        }
        !self.match_edge_labels
            || self.plan.back_edges(pos).iter().all(|&(epos, elabel)| {
                #[expect(
                    clippy::expect_used,
                    reason = "the candidate step yields only vertices adjacent to every back \
                              edge's match; a miss is a marks bug that must abort rather \
                              than silently skew counts"
                )]
                let e = g
                    .edge_between(VertexId(matched[epos as usize]), VertexId(cand))
                    .expect("candidate step produced a non-adjacent candidate");
                g.edge_label(e).raw() == elabel
            })
    }
}

impl SubgraphEnumerator for PatternEnumerator {
    fn compute_extensions(&mut self, g: &Graph, sg: &Subgraph, out: &mut Vec<u64>) -> u64 {
        out.clear();
        let pos = sg.num_vertices();
        if pos >= self.plan.len() {
            return 0;
        }
        if pos == 0 {
            let label = self.plan.label_at(0);
            let roots = (0..g.num_vertices() as u32).filter(|&v| {
                !self.match_vertex_labels || g.vertex_label(VertexId(v)).raw() == label
            });
            out.extend(roots.map(u64::from));
            return g.num_vertices() as u64;
        }
        // The candidates pass adjacency, both symmetry bounds and
        // membership; one test each, before any label is read.
        let matched = sg.vertices();
        self.marks.follow(g, matched, self.marking);
        let mask = self.plan.level(pos).mask;
        let mut tests = 0u64;
        for &cand in self.plan.candidate_slice(g, pos, matched) {
            if !self.marks.carries(cand, mask) || sg.has_vertex(cand) {
                continue;
            }
            tests += 1;
            if self.labels_ok(g, matched, pos, cand) {
                out.push(cand as u64);
            }
        }
        tests
    }

    fn extend(&mut self, g: &Graph, sg: &mut Subgraph, word: u64) {
        let pos = sg.num_vertices();
        let v = word as u32;
        self.edge_scratch.clear();
        for &(epos, _) in self.plan.back_edges(pos) {
            let u = sg.vertices()[epos as usize];
            #[expect(
                clippy::expect_used,
                reason = "extend candidates come out of the candidate step (same invariant as \
                          label matching above)"
            )]
            let e = g
                .edge_between(VertexId(u), VertexId(v))
                .expect("extend called with a non-adjacent candidate");
            self.edge_scratch.push((epos, e.raw()));
        }
        let edges = std::mem::take(&mut self.edge_scratch);
        sg.push_matched(v, &edges);
        self.edge_scratch = edges;
    }

    fn retract(&mut self, _g: &Graph, sg: &mut Subgraph) {
        sg.pop_vertex_induced();
    }

    fn max_words(&self) -> usize {
        self.plan.len()
    }

    fn clone_boxed(&self) -> Box<dyn SubgraphEnumerator> {
        Box::new(PatternEnumerator::new(
            self.plan.clone(),
            self.match_vertex_labels,
            self.match_edge_labels,
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fractal_graph::builder::{graph_from_edges, unlabeled_from_edges};
    use fractal_pattern::Pattern;

    /// Drives an enumerator to a fixed depth, returning all complete
    /// subgraph snapshots.
    pub(crate) fn run_to_depth(
        g: &Graph,
        mut enumerator: Box<dyn SubgraphEnumerator>,
        depth: usize,
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut sg = Subgraph::new(g);
        let mut out = Vec::new();
        fn rec(
            g: &Graph,
            en: &mut Box<dyn SubgraphEnumerator>,
            sg: &mut Subgraph,
            depth: usize,
            out: &mut Vec<(Vec<u32>, Vec<u32>)>,
        ) {
            if depth == 0 {
                out.push(sg.snapshot());
                return;
            }
            let mut exts = Vec::new();
            en.compute_extensions(g, sg, &mut exts);
            for w in exts {
                en.extend(g, sg, w);
                rec(g, en, sg, depth - 1, out);
                en.retract(g, sg);
            }
        }
        rec(g, &mut enumerator, &mut sg, depth, &mut out);
        out
    }

    #[test]
    fn vertex_induced_counts_triangles() {
        // Triangle + tail: exactly one 3-vertex clique, three connected
        // 3-vertex subgraphs total ({0,1,2}, {0,2,3}, {1,2,3}).
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let subs = run_to_depth(&g, Box::new(VertexInducedEnumerator::new()), 3);
        assert_eq!(subs.len(), 3);
        let cliques = subs.iter().filter(|(_, es)| es.len() == 3).count();
        assert_eq!(cliques, 1);
    }

    #[test]
    fn edge_induced_counts_paths() {
        // Path 0-1-2: 2 single edges, 1 two-edge subgraph.
        let g = unlabeled_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(
            run_to_depth(&g, Box::new(EdgeInducedEnumerator::new()), 1).len(),
            2
        );
        assert_eq!(
            run_to_depth(&g, Box::new(EdgeInducedEnumerator::new()), 2).len(),
            1
        );
    }

    #[test]
    fn edge_closing_a_cycle_is_tested_once_from_its_earlier_endpoint() {
        // Triangle 0-1-2 (edges 0: 0-1, 1: 1-2, 2: 0-2) with a tail 2-3
        // (edge 3). After [0, 1] all three triangle vertices are members and
        // edge 2 sits in the slices of vertices 0 and 2.
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut en = EdgeInducedEnumerator::new();
        let mut sg = Subgraph::new(&g);
        en.extend(&g, &mut sg, 0);
        en.extend(&g, &mut sg, 1);
        let mut exts = Vec::new();
        assert_eq!(en.compute_extensions(&g, &sg, &mut exts), 2);
        assert_eq!(exts, vec![2, 3]);
        // Reached as [0, 2] the closing edge is 1, smaller than the last
        // prefix edge and anchored at the first: not canonical.
        en.retract(&g, &mut sg);
        en.extend(&g, &mut sg, 2);
        assert_eq!(en.compute_extensions(&g, &sg, &mut exts), 2);
        assert_eq!(exts, vec![3]);
    }

    #[test]
    fn pattern_enumerator_counts_triangles_once() {
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let plan = Arc::new(ExplorationPlan::new(&Pattern::clique(3)));
        let subs = run_to_depth(&g, Box::new(PatternEnumerator::new(plan, false, false)), 3);
        assert_eq!(subs.len(), 1);
        let (vs, es) = &subs[0];
        let mut vs = vs.clone();
        vs.sort_unstable();
        assert_eq!(vs, vec![0, 1, 2]);
        assert_eq!(es.len(), 3);
    }

    #[test]
    fn pattern_without_symmetry_overcounts_by_group_size() {
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let plan = Arc::new(ExplorationPlan::without_symmetry(&Pattern::clique(3)));
        let subs = run_to_depth(&g, Box::new(PatternEnumerator::new(plan, false, false)), 3);
        assert_eq!(subs.len(), 6); // |Aut(K3)| = 6 images of the one triangle
    }

    #[test]
    fn pattern_respects_vertex_labels() {
        // Triangle with labels 0,1,1 — query a 0-1-1 triangle.
        let g = graph_from_edges(&[0, 1, 1], &[(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
        let q = Pattern::new(vec![0, 1, 1], vec![(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
        let plan = Arc::new(ExplorationPlan::new(&q));
        let subs = run_to_depth(&g, Box::new(PatternEnumerator::new(plan, true, false)), 3);
        assert_eq!(subs.len(), 1);
        // A 0-0-0 query matches nothing.
        let q0 = Pattern::new(vec![0, 0, 0], vec![(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
        let plan0 = Arc::new(ExplorationPlan::new(&q0));
        let subs0 = run_to_depth(&g, Box::new(PatternEnumerator::new(plan0, true, false)), 3);
        assert!(subs0.is_empty());
    }

    #[test]
    fn pattern_respects_edge_labels() {
        let g = graph_from_edges(&[0, 0, 0], &[(0, 1, 5), (1, 2, 5), (0, 2, 9)]);
        // Path of two label-5 edges: only 0-1-2 matches (centered at 1).
        let q = Pattern::new(vec![0, 0, 0], vec![(0, 1, 5), (1, 2, 5)]);
        let plan = Arc::new(ExplorationPlan::new(&q));
        let subs = run_to_depth(&g, Box::new(PatternEnumerator::new(plan, false, true)), 3);
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn rebuild_reproduces_state() {
        // A thief is handed the words the victim's enumerator produced,
        // masks and all, and replays them.
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut en: Box<dyn SubgraphEnumerator> = Box::new(VertexInducedEnumerator::new());
        let mut sg = Subgraph::new(&g);
        let mut words = Vec::new();
        let mut exts = Vec::new();
        for pick in [0, 1, 0] {
            en.compute_extensions(&g, &sg, &mut exts);
            words.push(exts[pick]);
            en.extend(&g, &mut sg, exts[pick]);
        }
        assert_eq!(sg.vertices(), &[0, 2, 3]);
        assert_eq!(sg.edges(), &[2, 3]);
        let snap = sg.snapshot();
        let mut en2: Box<dyn SubgraphEnumerator> = en.clone_boxed();
        let mut sg2 = Subgraph::new(&g);
        en2.rebuild(&g, &mut sg2, &words);
        assert_eq!(sg2.snapshot(), snap);
    }

    #[test]
    fn vertex_words_carry_the_adjacency_of_what_they_add() {
        // Triangle 0-1-2 with a tail 2-3: after [0, 1], vertex 2 is adjacent
        // to both positions; after [0, 2], vertex 3 to position 1 only.
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut en = VertexInducedEnumerator::new();
        let mut sg = Subgraph::new(&g);
        let mut exts = Vec::new();
        en.extend(&g, &mut sg, 0);
        en.extend(&g, &mut sg, vertex_word(1, 0b1));
        en.compute_extensions(&g, &sg, &mut exts);
        assert_eq!(exts, vec![vertex_word(2, 0b11)]);
        assert_eq!(en.word_kind(), Some(WordKind::Vertex));
        let (label, mask) = (0, 0b11);
        assert_eq!(
            WordKind::Vertex.level(&g, &sg, exts[0], false, false),
            Some((Level::Vertex { label, mask }, Some(2)))
        );
        en.retract(&g, &mut sg);
        en.extend(&g, &mut sg, vertex_word(2, 0b1));
        en.compute_extensions(&g, &sg, &mut exts);
        assert_eq!(exts, vec![vertex_word(3, 0b10)]);
        for &w in &exts {
            let (v, mask) = vertex_word_parts(w);
            assert_eq!(mask, sg.adjacency_mask(&g, v));
        }
    }

    #[test]
    fn edge_tips_give_local_endpoints_and_what_comes_in() {
        // Triangle 0-1-2 (edges 0: 0-1, 1: 1-2, 2: 0-2) with a tail 2-3
        // (edge 3).
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut en = EdgeInducedEnumerator::new();
        assert_eq!(en.word_kind(), Some(WordKind::Edge));
        let mut sg = Subgraph::new(&g);
        let edge = |sg: &Subgraph, w| WordKind::Edge.level(&g, sg, w, false, false);
        let level = |lo, hi, new_vertex| Level::Edge {
            lo,
            hi,
            label: 0,
            new_vertex,
        };
        // A root edge brings both endpoints in: not a level over a parent.
        assert_eq!(edge(&sg, 0), None);
        en.extend(&g, &mut sg, 0);
        assert_eq!(edge(&sg, 1), Some((level(1, 2, Some(0)), Some(2))));
        en.extend(&g, &mut sg, 1);
        // Edge 2 closes the triangle between positions 0 and 2.
        assert_eq!(edge(&sg, 2), Some((level(0, 2, None), None)));
        // What a word says is what `extend` then does.
        assert_eq!(edge(&sg, 3), Some((level(2, 3, Some(0)), Some(3))));
        en.extend(&g, &mut sg, 3);
        assert_eq!(sg.edge_ends().last(), Some(&(2, 3)));
        assert_eq!(sg.vertices().last(), Some(&3));
        // Positions, not ids, order the endpoints: reached as [1, 2] the
        // members are 1, 2, 0 and edge 0 closes between positions 2 and 0.
        sg.reset();
        sg.push_edge(&g, 1);
        sg.push_edge(&g, 2);
        assert_eq!(sg.vertices(), &[1, 2, 0]);
        assert_eq!(edge(&sg, 0), Some((level(0, 2, None), None)));
    }

    #[test]
    fn a_vertex_tip_knows_its_edges_but_not_their_labels() {
        let g = graph_from_edges(&[4, 5, 6], &[(0, 1, 7), (1, 2, 8), (0, 2, 9)]);
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, 0);
        sg.push_vertex_induced(&g, 1, 0b1);
        let word = vertex_word(2, 0b11);
        let vertex = |vl, el| WordKind::Vertex.level(&g, &sg, word, vl, el);
        let mask = 0b11;
        assert_eq!(
            vertex(true, false),
            Some((Level::Vertex { label: 6, mask }, Some(2)))
        );
        assert_eq!(
            vertex(false, false),
            Some((Level::Vertex { label: 0, mask }, Some(2)))
        );
        assert_eq!(vertex(true, true), None);
        let mut sg = Subgraph::new(&g);
        sg.push_edge(&g, 0);
        let edge = |vl, el| WordKind::Edge.level(&g, &sg, 1, vl, el).map(|(l, _)| l);
        let level = |label, new_vertex| Level::Edge {
            lo: 1,
            hi: 2,
            label,
            new_vertex,
        };
        assert_eq!(edge(true, true), Some(level(8, Some(6))));
        assert_eq!(edge(false, false), Some(level(0, Some(0))));
    }

    #[test]
    fn extension_cost_counts_tests() {
        let g = fractal_graph::gen::complete(4);
        let mut en = VertexInducedEnumerator::new();
        let mut sg = Subgraph::new(&g);
        let mut exts = Vec::new();
        // Root: n tests.
        assert_eq!(en.compute_extensions(&g, &sg, &mut exts), 4);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        // All 3 other vertices are candidates.
        assert_eq!(en.compute_extensions(&g, &sg, &mut exts), 3);
        assert_eq!(exts.len(), 3);
    }
}
