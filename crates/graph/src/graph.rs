//! The immutable CSR graph used by every other crate in the workspace.

use crate::keywords::{KeywordSets, KeywordTable};
use crate::{CliqueDag, EdgeId, KeywordId, Label, VertexId};
use std::sync::{Arc, OnceLock};

/// A resolved edge: its id, endpoints and label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Edge identifier.
    pub id: EdgeId,
    /// Smaller endpoint (edges are stored with `src < dst`).
    pub src: VertexId,
    /// Larger endpoint.
    pub dst: VertexId,
    /// Primary edge label.
    pub label: Label,
}

impl EdgeRef {
    /// The endpoint of this edge that is not `v`.
    ///
    /// Panics in debug builds if `v` is not an endpoint.
    #[inline]
    pub fn other(&self, v: VertexId) -> VertexId {
        debug_assert!(v == self.src || v == self.dst);
        if v == self.src {
            self.dst
        } else {
            self.src
        }
    }
}

/// An immutable, undirected, labeled graph in CSR form (paper Definition 1).
///
/// Construction goes through [`crate::GraphBuilder`], the loaders in
/// [`crate::io`] or the generators in [`crate::gen`]. Neighborhoods are
/// sorted by vertex id, which the enumeration layer relies on for
/// merge-intersections and binary-search edge lookups.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) offsets: Vec<u32>,
    pub(crate) nbr_vertices: Vec<u32>,
    pub(crate) nbr_edges: Vec<u32>,
    pub(crate) edge_src: Vec<u32>,
    pub(crate) edge_dst: Vec<u32>,
    pub(crate) vertex_labels: Vec<u32>,
    pub(crate) edge_labels: Vec<u32>,
    pub(crate) vertex_keywords: Option<KeywordSets>,
    pub(crate) edge_keywords: Option<KeywordSets>,
    pub(crate) keyword_table: Option<KeywordTable>,
    pub(crate) num_vertex_labels: u32,
    pub(crate) num_edge_labels: u32,
    /// The KClist orientation, built on first use and kept with the graph.
    pub(crate) clique_dag: OnceLock<Arc<CliqueDag>>,
}

impl Graph {
    /// Number of vertices `|V(G)|`.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of undirected edges `|E(G)|`.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.edge_labels.len()
    }

    /// Number of distinct vertex labels (`max + 1`, labels are dense-ish).
    #[inline]
    pub fn num_vertex_labels(&self) -> u32 {
        self.num_vertex_labels
    }

    /// Number of distinct edge labels.
    #[inline]
    pub fn num_edge_labels(&self) -> u32 {
        self.num_edge_labels
    }

    /// Degree of `v`.
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(VertexId::from_index(v)))
            .max()
            .unwrap_or(0)
    }

    /// Graph density `2|E| / (|V| (|V|-1))`.
    pub fn density(&self) -> f64 {
        let n = self.num_vertices() as f64;
        if n < 2.0 {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / (n * (n - 1.0))
    }

    /// Sorted neighbor vertex ids of `v` as a raw `u32` slice.
    #[inline(always)]
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        let i = v.index();
        &self.nbr_vertices[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Edge ids incident to `v`, parallel to [`Graph::neighbors`].
    #[inline(always)]
    pub fn incident_edges(&self, v: VertexId) -> &[u32] {
        let i = v.index();
        &self.nbr_edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether `u` and `v` are adjacent (binary search over the smaller
    /// neighborhood).
    #[inline]
    pub fn are_adjacent(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The edge connecting `u` and `v`, if any.
    #[inline]
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let nbrs = self.neighbors(a);
        match nbrs.binary_search(&b.raw()) {
            Ok(pos) => Some(EdgeId(self.incident_edges(a)[pos])),
            Err(_) => None,
        }
    }

    /// Endpoints of edge `e`, with `src < dst`.
    #[inline(always)]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        (
            VertexId(self.edge_src[e.index()]),
            VertexId(self.edge_dst[e.index()]),
        )
    }

    /// Fully resolved view of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> EdgeRef {
        EdgeRef {
            id: e,
            src: VertexId(self.edge_src[e.index()]),
            dst: VertexId(self.edge_dst[e.index()]),
            label: Label(self.edge_labels[e.index()]),
        }
    }

    /// Primary label of vertex `v`.
    #[inline(always)]
    pub fn vertex_label(&self, v: VertexId) -> Label {
        Label(self.vertex_labels[v.index()])
    }

    /// Primary label of edge `e`.
    #[inline(always)]
    pub fn edge_label(&self, e: EdgeId) -> Label {
        Label(self.edge_labels[e.index()])
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Intersects the sorted neighborhoods of `u` and `v` into `out`
    /// (cleared first) through the adaptive kernel layer
    /// ([`crate::kernels::intersect`]). Returns the intersection size.
    ///
    /// This is the workhorse of clique kernels (node-iterator triangles,
    /// KClist DAG construction); it allocates nothing when `out` has
    /// capacity.
    pub fn intersect_neighbors(&self, u: VertexId, v: VertexId, out: &mut Vec<u32>) -> usize {
        let mut c = crate::kernels::KernelCounters::default();
        crate::kernels::intersect(self.neighbors(u), self.neighbors(v), out, &mut c);
        out.len()
    }

    /// The degree-ordered DAG of this graph ([`CliqueDag`]), built on the
    /// first call and kept: every core and every job over this graph reads
    /// the same one, and it is dropped with the graph.
    pub fn clique_dag(&self) -> &Arc<CliqueDag> {
        self.clique_dag
            .get_or_init(|| Arc::new(CliqueDag::build(self)))
    }

    /// Keyword set of vertex `v` (empty slice when the graph carries no
    /// keywords).
    #[inline]
    pub fn vertex_keywords(&self, v: VertexId) -> &[KeywordId] {
        match &self.vertex_keywords {
            Some(ks) => ks.get(v.index()),
            None => &[],
        }
    }

    /// Keyword set of edge `e` (empty slice when the graph carries no
    /// keywords).
    #[inline]
    pub fn edge_keywords(&self, e: EdgeId) -> &[KeywordId] {
        match &self.edge_keywords {
            Some(ks) => ks.get(e.index()),
            None => &[],
        }
    }

    /// The keyword dictionary, when this graph is attributed.
    #[inline]
    pub fn keyword_table(&self) -> Option<&KeywordTable> {
        self.keyword_table.as_ref()
    }

    /// Whether edge `e` carries keyword `k`.
    #[inline]
    pub fn edge_has_keyword(&self, e: EdgeId, k: KeywordId) -> bool {
        self.edge_keywords(e).binary_search(&k).is_ok()
    }

    /// Estimated resident size of the CSR structure in bytes (used by the
    /// memory-accounting experiments).
    pub fn resident_bytes(&self) -> usize {
        let base = self.offsets.len() * 4
            + self.nbr_vertices.len() * 4
            + self.nbr_edges.len() * 4
            + self.edge_src.len() * 4
            + self.edge_dst.len() * 4
            + self.vertex_labels.len() * 4
            + self.edge_labels.len() * 4;
        let kw = self
            .vertex_keywords
            .as_ref()
            .map_or(0, |k| k.resident_bytes())
            + self
                .edge_keywords
                .as_ref()
                .map_or(0, |k| k.resident_bytes());
        base + kw
    }

    /// Internal consistency checks; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        let m = self.num_edges();
        if self.offsets.len() != n + 1 {
            return Err("offsets length mismatch".into());
        }
        if self.nbr_vertices.len() != 2 * m || self.nbr_edges.len() != 2 * m {
            return Err("csr arrays must have 2|E| entries".into());
        }
        for v in 0..n {
            let nbrs = self.neighbors(VertexId::from_index(v));
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("neighborhood of {v} not strictly sorted"));
            }
            for (pos, &u) in nbrs.iter().enumerate() {
                if u as usize >= n {
                    return Err(format!("neighbor {u} out of range"));
                }
                if u as usize == v {
                    return Err(format!("self-loop at {v}"));
                }
                let e = EdgeId(self.incident_edges(VertexId::from_index(v))[pos]);
                let (a, b) = self.edge_endpoints(e);
                if !(a.index() == v || b.index() == v) {
                    return Err(format!("edge {e} does not touch vertex {v}"));
                }
            }
        }
        for e in 0..m {
            if self.edge_src[e] >= self.edge_dst[e] {
                return Err(format!("edge {e} endpoints not ordered"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;
    use crate::{EdgeId, Label, VertexId};

    /// A 5-vertex house graph: square 0-1-2-3 plus roof vertex 4 on 2,3,
    /// and a diagonal 0-2.
    fn house() -> crate::Graph {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_vertex(Label(i % 2));
        }
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (2, 4), (3, 4)] {
            b.add_edge(VertexId(u), VertexId(v), Label(0)).unwrap();
        }
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = house();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.degree(VertexId(2)), 4);
        assert_eq!(g.neighbors(VertexId(2)), &[0, 1, 3, 4]);
        assert_eq!(g.max_degree(), 4);
        assert!(g.density() > 0.0);
    }

    #[test]
    fn edge_lookup_both_directions() {
        let g = house();
        let e = g.edge_between(VertexId(3), VertexId(2)).unwrap();
        assert_eq!(g.edge_between(VertexId(2), VertexId(3)), Some(e));
        let (s, d) = g.edge_endpoints(e);
        assert_eq!((s, d), (VertexId(2), VertexId(3)));
        assert_eq!(g.edge_between(VertexId(1), VertexId(4)), None);
        assert!(g.are_adjacent(VertexId(0), VertexId(2)));
        assert!(!g.are_adjacent(VertexId(1), VertexId(3)));
    }

    #[test]
    fn edge_ref_other_endpoint() {
        let g = house();
        let e = g.edge(g.edge_between(VertexId(0), VertexId(2)).unwrap());
        assert_eq!(e.other(VertexId(0)), VertexId(2));
        assert_eq!(e.other(VertexId(2)), VertexId(0));
    }

    #[test]
    fn neighborhood_intersection() {
        let g = house();
        let mut buf = Vec::new();
        // N(0) = {1,2,3}, N(2) = {0,1,3,4} -> {1,3}
        assert_eq!(g.intersect_neighbors(VertexId(0), VertexId(2), &mut buf), 2);
        assert_eq!(buf, vec![1, 3]);
        // Symmetric.
        assert_eq!(g.intersect_neighbors(VertexId(2), VertexId(0), &mut buf), 2);
        assert_eq!(buf, vec![1, 3]);
    }

    #[test]
    fn labels() {
        let g = house();
        assert_eq!(g.vertex_label(VertexId(1)), Label(1));
        assert_eq!(g.edge_label(EdgeId(0)), Label(0));
        assert_eq!(g.num_vertex_labels(), 2);
    }

    #[test]
    fn no_keywords_by_default() {
        let g = house();
        assert!(g.vertex_keywords(VertexId(0)).is_empty());
        assert!(g.edge_keywords(EdgeId(0)).is_empty());
        assert!(g.keyword_table().is_none());
    }

    #[test]
    fn resident_bytes_scale_with_size() {
        let g = house();
        assert!(g.resident_bytes() >= (g.num_vertices() + 4 * g.num_edges()) * 4);
    }
}
