//! The incrementally grown [`Subgraph`] each core mutates during the DFS.

use fractal_graph::bitset::Bitset;
use fractal_graph::{EdgeId, Graph, VertexId};
use fractal_pattern::canon::QuickPattern;
use fractal_pattern::Pattern;

/// A connected subgraph under construction (Definition 2).
///
/// The structure supports the three growth modes of Fig. 1 with O(1)
/// membership tests and exact per-level rollback, so a single instance is
/// reused across the entire DFS of Algorithm 1 ("reusing the data
/// structures on each enumeration level"):
///
/// - [`push_vertex_induced`](Subgraph::push_vertex_induced) adds a vertex
///   and *all* edges connecting it to the current subgraph,
/// - [`push_edge`](Subgraph::push_edge) adds an edge and its missing
///   endpoints,
/// - [`push_matched`](Subgraph::push_matched) adds a vertex plus an
///   explicit set of matched edges (pattern-induced growth).
///
/// Each push records what it added; the corresponding `pop_*` undoes it.
/// Every stored edge also keeps the local positions (indices into
/// `vertices`) of its two endpoints, so the subgraph's quick pattern is read
/// off it directly ([`quick_pattern`](Subgraph::quick_pattern)).
#[derive(Debug, Clone)]
pub struct Subgraph {
    vertices: Vec<u32>,
    edges: Vec<u32>,
    /// Parallel to `edges`: local endpoint positions `(lo, hi)`, `lo < hi`.
    edge_ends: Vec<(u8, u8)>,
    vmember: Bitset,
    emember: Bitset,
    /// Per vertex-level: number of edges that level added (vertex modes).
    level_edges: Vec<u32>,
    /// Per edge-level: number of vertices that level added (edge mode).
    level_vertices: Vec<u32>,
}

impl Subgraph {
    /// An empty subgraph with membership capacity sized for `g`.
    pub fn new(g: &Graph) -> Self {
        Subgraph {
            vertices: Vec::with_capacity(16),
            edges: Vec::with_capacity(32),
            edge_ends: Vec::with_capacity(32),
            vmember: Bitset::new(g.num_vertices()),
            emember: Bitset::new(g.num_edges()),
            level_edges: Vec::with_capacity(16),
            level_vertices: Vec::with_capacity(16),
        }
    }

    /// Current vertices, in insertion order.
    #[inline(always)]
    pub fn vertices(&self) -> &[u32] {
        &self.vertices
    }

    /// Current edges, in insertion order.
    #[inline(always)]
    pub fn edges(&self) -> &[u32] {
        &self.edges
    }

    /// Local endpoint positions `(lo, hi)`, `lo < hi`, of each edge of
    /// [`edges`](Self::edges): indices into [`vertices`](Self::vertices).
    #[inline(always)]
    pub fn edge_ends(&self) -> &[(u8, u8)] {
        &self.edge_ends
    }

    /// Number of vertices.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the subgraph is empty.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges.is_empty()
    }

    /// O(1) vertex membership.
    #[inline(always)]
    pub fn has_vertex(&self, v: u32) -> bool {
        self.vmember.get(v as usize)
    }

    /// O(1) edge membership.
    #[inline(always)]
    pub fn has_edge(&self, e: u32) -> bool {
        self.emember.get(e as usize)
    }

    /// The most recently added edge, if any (used by the keyword-search
    /// filter of Listing 4).
    #[inline]
    pub fn last_edge(&self) -> Option<EdgeId> {
        self.edges.last().map(|&e| EdgeId(e))
    }

    /// The most recently added vertex, if any.
    #[inline]
    pub fn last_vertex(&self) -> Option<VertexId> {
        self.vertices.last().map(|&v| VertexId(v))
    }

    /// Number of edges added by the most recent vertex push (the clique
    /// filter of Listing 2 checks this against `num_vertices - 1`).
    #[inline]
    pub fn last_level_edge_count(&self) -> usize {
        self.level_edges.last().copied().unwrap_or(0) as usize
    }

    /// Local position (index into [`vertices`](Self::vertices)) of `v`, if
    /// it is a member.
    #[inline]
    pub fn position_of(&self, v: u32) -> Option<usize> {
        // panic-ok: the membership bitmap mirrors `vertices`; a set bit
        // without a list entry is a corrupted subgraph.
        self.has_vertex(v).then(|| {
            let at = self.vertices.iter().position(|&x| x == v);
            at.expect("member bitmap and list disagree")
        })
    }

    /// The positions of the current vertices `v` is adjacent to (bit `p`:
    /// `vertices()[p]`), found the slow way, one adjacency probe per member.
    /// Enumeration never calls this: a vertex-induced word carries the mask
    /// its enumerator already saw. It is what `push_vertex_induced` holds a
    /// given mask against in debug builds, and what a hand-built subgraph
    /// pushes with.
    pub fn adjacency_mask(&self, g: &Graph, v: u32) -> u32 {
        let nbrs = g.neighbors(VertexId(v));
        self.vertices
            .iter()
            .enumerate()
            .filter(|(_, u)| nbrs.binary_search(u).is_ok())
            .fold(0, |mask, (p, _)| mask | 1 << p)
    }

    /// Adds vertex `v` and every edge of `g` between `v` and the current
    /// vertices (vertex-induced growth). `mask` says which those are: bit
    /// `p` set iff `v` is adjacent to `vertices()[p]`
    /// ([`adjacency_mask`](Self::adjacency_mask)). It is trusted, so only
    /// the adjacent members are probed for their edge ids.
    pub fn push_vertex_induced(&mut self, g: &Graph, v: u32, mask: u32) {
        debug_assert!(!self.has_vertex(v));
        debug_assert_eq!(
            mask,
            self.adjacency_mask(g, v),
            "adjacency mask of vertex {v} against {:?}",
            self.vertices
        );
        let nbrs = g.neighbors(VertexId(v));
        let eids = g.incident_edges(VertexId(v));
        let edges = &mut self.edges;
        let edge_ends = &mut self.edge_ends;
        let emember = &mut self.emember;
        let at_v = self.vertices.len() as u8;
        let added = fractal_graph::kernels::collect_induced_edges(
            nbrs,
            eids,
            &self.vertices,
            mask,
            |e, at_u| {
                edges.push(e);
                edge_ends.push((at_u as u8, at_v));
                emember.set(e as usize);
            },
        );
        self.vertices.push(v);
        self.vmember.set(v as usize);
        self.level_edges.push(added);
    }

    /// Undoes the most recent [`push_vertex_induced`](Self::push_vertex_induced).
    pub fn pop_vertex_induced(&mut self) {
        // panic-ok: push/pop discipline is enforced by the enumerator's
        // recursion; an underflow is a traversal bug and must fail loudly, not
        // corrupt counts.
        let added = self.level_edges.pop().expect("pop on empty subgraph") as usize;
        let keep = self.edges.len() - added;
        for &e in &self.edges[keep..] {
            self.emember.clear(e as usize);
        }
        self.edges.truncate(keep);
        self.edge_ends.truncate(keep);
        // panic-ok: same pop discipline — vertices/edges stay balanced with
        // level_edges.
        let v = self.vertices.pop().unwrap();
        self.vmember.clear(v as usize);
    }

    /// Adds edge `e` and its endpoints that are not yet present
    /// (edge-induced growth).
    pub fn push_edge(&mut self, g: &Graph, e: u32) {
        debug_assert!(!self.has_edge(e));
        let (s, d) = g.edge_endpoints(EdgeId(e));
        let mut added = 0u32;
        let at = [s.raw(), d.raw()].map(|v| {
            self.position_of(v).unwrap_or_else(|| {
                self.vertices.push(v);
                self.vmember.set(v as usize);
                added += 1;
                self.vertices.len() - 1
            }) as u8
        });
        self.edges.push(e);
        self.edge_ends.push((at[0].min(at[1]), at[0].max(at[1])));
        self.emember.set(e as usize);
        self.level_vertices.push(added);
    }

    /// Undoes the most recent [`push_edge`](Self::push_edge).
    pub fn pop_edge(&mut self) {
        // panic-ok: push/pop discipline, see pop_vertex_induced.
        let added = self.level_vertices.pop().expect("pop on empty subgraph") as usize;
        for _ in 0..added {
            let v = self.vertices.pop().unwrap();
            self.vmember.clear(v as usize);
        }
        // panic-ok: same pop discipline — the edge pushed with this level is
        // still present.
        let e = self.edges.pop().unwrap();
        self.edge_ends.pop();
        self.emember.clear(e as usize);
    }

    /// Adds vertex `v` plus the explicit `matched` edges, each given as
    /// `(local position of its earlier endpoint, edge id)` (pattern-induced
    /// growth: only the pattern's edges are part of the subgraph, Fig. 1).
    pub fn push_matched(&mut self, v: u32, matched: &[(u8, u32)]) {
        debug_assert!(!self.has_vertex(v));
        let at_v = self.vertices.len() as u8;
        for &(at_u, e) in matched {
            debug_assert!(!self.has_edge(e));
            debug_assert!(at_u < at_v);
            self.edges.push(e);
            self.edge_ends.push((at_u, at_v));
            self.emember.set(e as usize);
        }
        self.vertices.push(v);
        self.vmember.set(v as usize);
        self.level_edges.push(matched.len() as u32);
    }

    /// Clears everything, keeping capacity.
    pub fn reset(&mut self) {
        for &v in &self.vertices {
            self.vmember.clear(v as usize);
        }
        for &e in &self.edges {
            self.emember.clear(e as usize);
        }
        self.vertices.clear();
        self.edges.clear();
        self.edge_ends.clear();
        self.level_edges.clear();
        self.level_vertices.clear();
    }

    /// The pattern of this subgraph as stored (vertex set + stored edges).
    /// For vertex-induced growth the stored edges are exactly the induced
    /// edges, so this is the induced pattern. Built from graph lookups and
    /// position searches: the engine names a subgraph through
    /// [`quick_pattern`](Self::quick_pattern) instead, and the property
    /// tests hold that against this.
    pub fn pattern(&self, g: &Graph, use_vlabels: bool, use_elabels: bool) -> Pattern {
        if self.edges.is_empty() {
            // Single vertices (or empty).
            let labels = self
                .vertices
                .iter()
                .map(|&v| {
                    if use_vlabels {
                        g.vertex_label(VertexId(v)).raw()
                    } else {
                        0
                    }
                })
                .collect();
            return Pattern::new(labels, Vec::new());
        }
        // panic-ok: the canonical relabeling looks up vertices taken from this
        // subgraph's own vertex list; a miss is impossible by construction.
        let local_of = |v: u32| -> u8 { self.vertices.iter().position(|&x| x == v).unwrap() as u8 };
        let labels = self
            .vertices
            .iter()
            .map(|&v| {
                if use_vlabels {
                    g.vertex_label(VertexId(v)).raw()
                } else {
                    0
                }
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|&e| {
                let (s, d) = g.edge_endpoints(EdgeId(e));
                let l = if use_elabels {
                    g.edge_label(EdgeId(e)).raw()
                } else {
                    0
                };
                (local_of(s.raw()), local_of(d.raw()), l)
            })
            .collect();
        Pattern::new(labels, edges)
    }

    /// Writes this subgraph's quick pattern — the content of
    /// [`pattern`](Self::pattern) as flat words — into `out`: labels and
    /// stored endpoint positions only, no graph topology lookups, no search
    /// and no allocation once `out` has grown.
    #[inline]
    pub fn quick_pattern(
        &self,
        g: &Graph,
        use_vlabels: bool,
        use_elabels: bool,
        out: &mut QuickPattern,
    ) {
        for &v in &self.vertices {
            out.vertex(if use_vlabels {
                g.vertex_label(VertexId(v)).raw()
            } else {
                0
            });
        }
        for (&e, &(lo, hi)) in self.edges.iter().zip(&self.edge_ends) {
            out.edge(
                lo,
                hi,
                if use_elabels {
                    g.edge_label(EdgeId(e)).raw()
                } else {
                    0
                },
            );
        }
    }

    /// An owned snapshot `(vertices, edges)` of the current state.
    pub fn snapshot(&self) -> (Vec<u32>, Vec<u32>) {
        (self.vertices.clone(), self.edges.clone())
    }

    /// Approximate live bytes of this structure (memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.vertices.capacity() * 4
            + self.edges.capacity() * 4
            + self.edge_ends.capacity() * 2
            + self.vmember.resident_bytes()
            + self.emember.resident_bytes()
            + self.level_edges.capacity() * 4
            + self.level_vertices.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_graph::builder::graph_from_edges;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 2-3 tail.
        graph_from_edges(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 1), (0, 2, 2), (2, 3, 3)])
    }

    #[test]
    fn vertex_induced_push_collects_all_edges() {
        let g = triangle_plus_tail();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        assert_eq!(sg.num_edges(), 0);
        sg.push_vertex_induced(&g, 1, sg.adjacency_mask(&g, 1));
        assert_eq!(sg.num_edges(), 1);
        sg.push_vertex_induced(&g, 2, sg.adjacency_mask(&g, 2));
        // Vertex 2 connects to both 0 and 1.
        assert_eq!(sg.num_edges(), 3);
        assert_eq!(sg.last_level_edge_count(), 2);
        assert!(sg.has_vertex(2));
        assert!(sg.has_edge(2));
    }

    #[test]
    fn vertex_induced_pop_restores_exactly() {
        let g = triangle_plus_tail();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        sg.push_vertex_induced(&g, 2, sg.adjacency_mask(&g, 2));
        let snap = sg.snapshot();
        sg.push_vertex_induced(&g, 1, sg.adjacency_mask(&g, 1));
        sg.pop_vertex_induced();
        assert_eq!(sg.snapshot(), snap);
        assert!(!sg.has_vertex(1));
        assert!(sg.has_edge(2)); // edge 0-2 still present
        sg.pop_vertex_induced();
        sg.pop_vertex_induced();
        assert!(sg.is_empty());
    }

    #[test]
    fn edge_induced_tracks_endpoint_additions() {
        let g = triangle_plus_tail();
        let mut sg = Subgraph::new(&g);
        sg.push_edge(&g, 0); // 0-1: two new vertices
        assert_eq!(sg.num_vertices(), 2);
        sg.push_edge(&g, 1); // 1-2: one new vertex
        assert_eq!(sg.num_vertices(), 3);
        sg.push_edge(&g, 2); // 0-2: zero new vertices
        assert_eq!(sg.num_vertices(), 3);
        assert_eq!(sg.num_edges(), 3);
        sg.pop_edge();
        assert_eq!(sg.num_vertices(), 3);
        assert_eq!(sg.num_edges(), 2);
        sg.pop_edge();
        assert_eq!(sg.num_vertices(), 2);
        sg.pop_edge();
        assert!(sg.is_empty());
    }

    #[test]
    fn matched_push_stores_exact_edges() {
        let g = triangle_plus_tail();
        let mut sg = Subgraph::new(&g);
        sg.push_matched(0, &[]);
        sg.push_matched(1, &[(0, 0)]);
        sg.push_matched(2, &[(1, 1)]); // only pattern edge 1-2, not 0-2
        assert_eq!(sg.num_edges(), 2);
        assert!(!sg.has_edge(2));
        sg.pop_vertex_induced();
        assert_eq!(sg.num_edges(), 1);
        assert!(!sg.has_vertex(2));
    }

    #[test]
    fn last_accessors() {
        let g = triangle_plus_tail();
        let mut sg = Subgraph::new(&g);
        assert!(sg.last_edge().is_none());
        sg.push_edge(&g, 3);
        assert_eq!(sg.last_edge(), Some(EdgeId(3)));
        assert_eq!(sg.last_vertex(), Some(VertexId(3)));
    }

    #[test]
    fn pattern_extraction_vertex_induced() {
        let g = triangle_plus_tail();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        sg.push_vertex_induced(&g, 1, sg.adjacency_mask(&g, 1));
        sg.push_vertex_induced(&g, 2, sg.adjacency_mask(&g, 2));
        let p = sg.pattern(&g, true, true);
        assert_eq!(p.num_vertices(), 3);
        assert_eq!(p.num_edges(), 3);
        assert!(p.is_clique());
        let pu = sg.pattern(&g, false, false);
        assert_eq!(pu.vertex_label(0), 0);
    }

    #[test]
    fn reset_clears_membership() {
        let g = triangle_plus_tail();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        sg.push_vertex_induced(&g, 1, sg.adjacency_mask(&g, 1));
        sg.reset();
        assert!(sg.is_empty());
        assert!(!sg.has_vertex(0));
        assert!(!sg.has_edge(0));
        // Reusable after reset.
        sg.push_vertex_induced(&g, 3, sg.adjacency_mask(&g, 3));
        assert_eq!(sg.vertices(), &[3]);
    }
}
