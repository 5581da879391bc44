//! Mutable graph construction with validation, frozen into [`Graph`].

use crate::keywords::{KeywordSets, KeywordTable};
use crate::{EdgeId, Graph, GraphError, KeywordId, Label, VertexId};
use std::collections::HashSet;

/// Builder that accumulates vertices and edges, validates the model
/// constraints (no self-loops, no duplicate undirected edges) and freezes
/// into an immutable CSR [`Graph`].
///
/// ```
/// use fractal_graph::{GraphBuilder, Label, VertexId};
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_vertex(Label(0));
/// let v = b.add_vertex(Label(1));
/// b.add_edge(u, v, Label(7)).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// assert!(g.are_adjacent(u, v));
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    vertex_labels: Vec<u32>,
    edges: Vec<(u32, u32, u32)>,
    edge_set: HashSet<(u32, u32)>,
    vertex_keywords: Vec<Vec<KeywordId>>,
    edge_keywords: Vec<Vec<KeywordId>>,
    keyword_table: KeywordTable,
    has_keywords: bool,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `n` vertices and `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            vertex_labels: Vec::with_capacity(n),
            edges: Vec::with_capacity(m),
            edge_set: HashSet::with_capacity(m),
            ..Self::default()
        }
    }

    /// Adds a vertex with the given primary label; returns its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId::from_index(self.vertex_labels.len());
        self.vertex_labels.push(label.raw());
        self.vertex_keywords.push(Vec::new());
        id
    }

    /// Current number of vertices added.
    pub fn num_vertices(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Current number of edges added.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected labeled edge, rejecting self-loops, unknown
    /// endpoints and duplicates. Returns the edge id.
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        label: Label,
    ) -> Result<EdgeId, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u.raw()));
        }
        let n = self.vertex_labels.len() as u32;
        if u.raw() >= n {
            return Err(GraphError::UnknownVertex(u.raw()));
        }
        if v.raw() >= n {
            return Err(GraphError::UnknownVertex(v.raw()));
        }
        let key = (u.raw().min(v.raw()), u.raw().max(v.raw()));
        if !self.edge_set.insert(key) {
            return Err(GraphError::DuplicateEdge(key.0, key.1));
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push((key.0, key.1, label.raw()));
        self.edge_keywords.push(Vec::new());
        Ok(id)
    }

    /// Adds an edge unless it already exists; returns the id of the new edge
    /// or `None` when it was a duplicate. Used by random generators where
    /// duplicate proposals are expected.
    pub fn add_edge_dedup(&mut self, u: VertexId, v: VertexId, label: Label) -> Option<EdgeId> {
        match self.add_edge(u, v, label) {
            Ok(id) => Some(id),
            Err(GraphError::DuplicateEdge(..)) => None,
            Err(_) => None,
        }
    }

    /// Interns a keyword string for later use in `add_*_keyword`.
    pub fn intern_keyword(&mut self, name: &str) -> KeywordId {
        self.has_keywords = true;
        self.keyword_table.intern(name)
    }

    /// Attaches keyword `k` to vertex `v`.
    pub fn add_vertex_keyword(&mut self, v: VertexId, k: KeywordId) {
        self.has_keywords = true;
        self.vertex_keywords[v.index()].push(k);
    }

    /// Attaches keyword `k` to edge `e`.
    pub fn add_edge_keyword(&mut self, e: EdgeId, k: KeywordId) {
        self.has_keywords = true;
        self.edge_keywords[e.index()].push(k);
    }

    /// Freezes the accumulated graph into its immutable CSR form, through
    /// the same checked pass as [`try_graph_from_edges`].
    pub fn build(self) -> Graph {
        let mut g = freeze(self.vertex_labels, &self.edges).expect("add_edge validated every edge");
        if self.has_keywords {
            g.vertex_keywords = Some(KeywordSets::from_sets(self.vertex_keywords));
            g.edge_keywords = Some(KeywordSets::from_sets(self.edge_keywords));
            g.keyword_table = Some(self.keyword_table);
        }
        g
    }
}

/// The one CSR freeze, under both [`GraphBuilder::build`] and
/// [`try_graph_from_edges`]: checks every edge against the model (Def. 1:
/// known endpoints, no self-loop, no duplicate undirected edge) and builds
/// the sorted adjacency arrays. Edge ids are positions in `edges`.
///
/// O(V + E) plus a sort of each neighbourhood: a counting sort over
/// endpoints places every `(neighbour, edge)` pair in its vertex's span,
/// each span not already in order is sorted by neighbour id, and a
/// duplicate edge is then two adjacent entries with the same neighbour —
/// no hash set needed.
fn freeze(vertex_labels: Vec<u32>, edges: &[(u32, u32, u32)]) -> Result<Graph, GraphError> {
    let n = vertex_labels.len();
    let m = edges.len();

    let mut offsets = vec![0u32; n + 1];
    let mut edge_src = Vec::with_capacity(m);
    let mut edge_dst = Vec::with_capacity(m);
    let mut edge_labels = Vec::with_capacity(m);
    for &(u, v, l) in edges {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for x in [u, v] {
            if x as usize >= n {
                return Err(GraphError::UnknownVertex(x));
            }
        }
        edge_src.push(u.min(v));
        edge_dst.push(u.max(v));
        edge_labels.push(l);
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }

    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut nbr_vertices = vec![0u32; 2 * m];
    let mut nbr_edges = vec![0u32; 2 * m];
    for (e, (&u, &v)) in edge_src.iter().zip(&edge_dst).enumerate() {
        for (at, nbr) in [(u, v), (v, u)] {
            let c = &mut cursor[at as usize];
            nbr_vertices[*c as usize] = nbr;
            nbr_edges[*c as usize] = e as u32;
            *c += 1;
        }
    }
    let mut span = Vec::new();
    for i in 0..n {
        let at = offsets[i] as usize..offsets[i + 1] as usize;
        // Edges listed by their smaller endpoint in order (an adjacency
        // list read line by line) land in every span sorted already.
        if nbr_vertices[at.clone()].windows(2).all(|w| w[0] < w[1]) {
            continue;
        }
        span.clear();
        span.extend(at.clone().map(|k| (nbr_vertices[k], nbr_edges[k])));
        span.sort_unstable();
        if let Some(w) = span.windows(2).find(|w| w[0].0 == w[1].0) {
            let (i, j) = (i as u32, w[0].0);
            return Err(GraphError::DuplicateEdge(i.min(j), i.max(j)));
        }
        for (k, (v, e)) in at.zip(span.drain(..)) {
            nbr_vertices[k] = v;
            nbr_edges[k] = e;
        }
    }

    let num_vertex_labels = vertex_labels.iter().copied().max().map_or(0, |l| l + 1);
    let num_edge_labels = edge_labels.iter().copied().max().map_or(0, |l| l + 1);
    let g = Graph {
        offsets,
        nbr_vertices,
        nbr_edges,
        edge_src,
        edge_dst,
        vertex_labels,
        edge_labels,
        vertex_keywords: None,
        edge_keywords: None,
        keyword_table: None,
        num_vertex_labels,
        num_edge_labels,
        clique_dag: Default::default(),
    };
    debug_assert!(g.validate().is_ok(), "freeze produced invalid graph");
    Ok(g)
}

/// Builds a graph from explicit vertex labels and an edge list in one
/// checked pass — the bulk constructor for edge lists that arrive from
/// outside the program (a job blob off the wire). A self-loop, an endpoint
/// outside `labels` or a repeated undirected edge is an `Err` naming it.
///
/// `edges` entries are `(u, v, label)` triples over indices into `labels`;
/// edge `i` of the graph is `edges[i]`.
pub fn try_graph_from_edges(
    labels: &[u32],
    edges: &[(u32, u32, u32)],
) -> Result<Graph, GraphError> {
    freeze(labels.to_vec(), edges)
}

/// [`try_graph_from_edges`] for edge lists the program itself wrote;
/// convenience for tests and examples. Panics on an invalid edge.
pub fn graph_from_edges(labels: &[u32], edges: &[(u32, u32, u32)]) -> Graph {
    try_graph_from_edges(labels, edges).expect("invalid edge in graph_from_edges")
}

/// Builds an unlabeled graph (all labels zero) from an edge list over
/// `n` vertices.
pub fn unlabeled_from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
    let labels = vec![0u32; n];
    let triples: Vec<(u32, u32, u32)> = edges.iter().map(|&(u, v)| (u, v, 0)).collect();
    graph_from_edges(&labels, &triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex(Label(0));
        assert!(matches!(
            b.add_edge(v, v, Label(0)),
            Err(GraphError::SelfLoop(0))
        ));
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex(Label(0));
        assert!(matches!(
            b.add_edge(v, VertexId(5), Label(0)),
            Err(GraphError::UnknownVertex(5))
        ));
    }

    #[test]
    fn rejects_duplicate_in_both_orientations() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Label(0));
        let v = b.add_vertex(Label(0));
        b.add_edge(u, v, Label(0)).unwrap();
        assert!(matches!(
            b.add_edge(v, u, Label(1)),
            Err(GraphError::DuplicateEdge(0, 1))
        ));
        assert_eq!(b.add_edge_dedup(u, v, Label(0)), None);
    }

    #[test]
    fn neighborhoods_sorted_with_aligned_edge_ids() {
        // Insert edges in scrambled order; CSR must come out sorted.
        let g = unlabeled_from_edges(4, &[(2, 0), (3, 0), (1, 0)]);
        assert_eq!(g.neighbors(VertexId(0)), &[1, 2, 3]);
        for (&nbr, &e) in g
            .neighbors(VertexId(0))
            .iter()
            .zip(g.incident_edges(VertexId(0)))
        {
            let (s, d) = g.edge_endpoints(EdgeId(e));
            assert!(s == VertexId(0) || d == VertexId(0));
            assert!(s == VertexId(nbr) || d == VertexId(nbr));
        }
    }

    #[test]
    fn keywords_preserved() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Label(0));
        let v = b.add_vertex(Label(0));
        let e = b.add_edge(u, v, Label(0)).unwrap();
        let k1 = b.intern_keyword("drama");
        let k2 = b.intern_keyword("cruise");
        b.add_vertex_keyword(u, k2);
        b.add_edge_keyword(e, k1);
        b.add_edge_keyword(e, k2);
        let g = b.build();
        assert_eq!(g.vertex_keywords(u), &[k2]);
        assert_eq!(g.edge_keywords(e), &[k1, k2]);
        assert_eq!(g.keyword_table().unwrap().name(k1), "drama");
        assert!(g.edge_has_keyword(e, k1));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        g.validate().unwrap();
    }
}
