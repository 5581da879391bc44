//! The [`Pattern`] type: a small labeled graph template.

use fractal_graph::{Graph, VertexId};

/// Maximum number of vertices in a pattern. Patterns are subgraph templates
/// (motifs, queries, FSM candidates), which in practice have well under this
/// many vertices; the bound lets adjacency live in per-vertex `u32` bitmasks.
pub const MAX_PATTERN_VERTICES: usize = 32;

/// A small labeled undirected graph used as a subgraph template.
///
/// Vertices are indexed `0..n`. Adjacency is stored both as an edge list
/// (sorted, `u < v`) and per-vertex bitmasks for O(1) adjacency tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    vertex_labels: Vec<u32>,
    /// Sorted `(u, v, edge_label)` triples with `u < v`.
    edges: Vec<(u8, u8, u32)>,
    /// `adj[v]` has bit `u` set iff `{u, v}` is an edge.
    adj: Vec<u32>,
}

impl Pattern {
    /// Builds a pattern from explicit vertex labels and `(u, v, label)`
    /// edges. Panics on self-loops, duplicate edges, out-of-range endpoints
    /// or more than [`MAX_PATTERN_VERTICES`] vertices.
    pub fn new(vertex_labels: Vec<u32>, mut edges: Vec<(u8, u8, u32)>) -> Self {
        let n = vertex_labels.len();
        assert!(n <= MAX_PATTERN_VERTICES, "pattern too large");
        let mut adj = vec![0u32; n];
        for e in &mut edges {
            assert!(e.0 != e.1, "self-loop in pattern");
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
            assert!((e.1 as usize) < n, "pattern edge endpoint out of range");
        }
        edges.sort_unstable();
        for w in edges.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "duplicate edge in pattern"
            );
        }
        for &(u, v, _) in &edges {
            adj[u as usize] |= 1 << v;
            adj[v as usize] |= 1 << u;
        }
        Pattern {
            vertex_labels,
            edges,
            adj,
        }
    }

    /// An unlabeled pattern (all labels zero) from an edge list over `n`
    /// vertices.
    pub fn unlabeled(n: usize, edges: &[(u8, u8)]) -> Self {
        Pattern::new(vec![0; n], edges.iter().map(|&(u, v)| (u, v, 0)).collect())
    }

    /// The pattern of the subgraph induced in `g` by `vertices` (all edges
    /// of `g` between them). `use_vlabels` / `use_elabels` control whether
    /// labels participate (motif counting conventionally ignores them).
    pub fn from_vertex_induced(
        g: &Graph,
        vertices: &[u32],
        use_vlabels: bool,
        use_elabels: bool,
    ) -> Self {
        let n = vertices.len();
        assert!(n <= MAX_PATTERN_VERTICES, "pattern too large");
        let vertex_labels = vertices
            .iter()
            .map(|&v| {
                if use_vlabels {
                    g.vertex_label(VertexId(v)).raw()
                } else {
                    0
                }
            })
            .collect();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(e) = g.edge_between(VertexId(vertices[i]), VertexId(vertices[j])) {
                    let l = if use_elabels {
                        g.edge_label(e).raw()
                    } else {
                        0
                    };
                    edges.push((i as u8, j as u8, l));
                }
            }
        }
        Pattern::new(vertex_labels, edges)
    }

    /// The pattern of the edge-induced subgraph of `g` given by `edge_ids`.
    /// Pattern vertex `i` corresponds to the `i`-th distinct endpoint in
    /// first-appearance order; the returned map gives, for each pattern
    /// vertex, the original graph vertex.
    pub fn from_edge_induced(
        g: &Graph,
        edge_ids: &[u32],
        use_vlabels: bool,
        use_elabels: bool,
    ) -> (Self, Vec<u32>) {
        let mut vmap: Vec<u32> = Vec::new();
        let local = |v: u32, vmap: &mut Vec<u32>| -> u8 {
            match vmap.iter().position(|&x| x == v) {
                Some(i) => i as u8,
                None => {
                    vmap.push(v);
                    (vmap.len() - 1) as u8
                }
            }
        };
        let mut edges = Vec::with_capacity(edge_ids.len());
        for &e in edge_ids {
            let (s, d) = g.edge_endpoints(fractal_graph::EdgeId(e));
            let ls = local(s.raw(), &mut vmap);
            let ld = local(d.raw(), &mut vmap);
            let l = if use_elabels {
                g.edge_label(fractal_graph::EdgeId(e)).raw()
            } else {
                0
            };
            edges.push((ls, ld, l));
        }
        let vertex_labels = vmap
            .iter()
            .map(|&v| {
                if use_vlabels {
                    g.vertex_label(VertexId(v)).raw()
                } else {
                    0
                }
            })
            .collect();
        (Pattern::new(vertex_labels, edges), vmap)
    }

    /// Number of vertices.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of edges.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Label of vertex `v`.
    #[inline(always)]
    pub fn vertex_label(&self, v: usize) -> u32 {
        self.vertex_labels[v]
    }

    /// Sorted `(u, v, label)` edges with `u < v`.
    #[inline]
    pub fn edges(&self) -> &[(u8, u8, u32)] {
        &self.edges
    }

    /// Whether `u` and `v` are adjacent.
    #[inline(always)]
    pub fn adjacent(&self, u: usize, v: usize) -> bool {
        (self.adj[v] >> u) & 1 == 1
    }

    /// Adjacency bitmask of `v` (bit `u` set iff adjacent).
    #[inline(always)]
    pub fn adj_mask(&self, v: usize) -> u32 {
        self.adj[v]
    }

    /// Label of the edge between `u` and `v`, if adjacent.
    pub fn edge_label(&self, u: usize, v: usize) -> Option<u32> {
        let (a, b) = (u.min(v) as u8, u.max(v) as u8);
        self.edges
            .binary_search_by(|probe| (probe.0, probe.1).cmp(&(a, b)))
            .ok()
            .map(|i| self.edges[i].2)
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].count_ones() as usize
    }

    /// Whether the pattern is connected (the model mines connected
    /// subgraphs only).
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n == 0 {
            return true;
        }
        let mut seen = 1u32;
        let mut frontier = 1u32;
        while frontier != 0 {
            let mut next = 0u32;
            let mut f = frontier;
            while f != 0 {
                let v = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= self.adj[v] & !seen;
            }
            seen |= next;
            frontier = next;
        }
        seen.count_ones() as usize == n
    }

    /// Connected components, each as a sorted list of vertex ids. A
    /// connected pattern yields one component holding every vertex; the
    /// decomposition planner and the component-product automorphism count
    /// rely on this for disconnected sub-patterns.
    pub fn components(&self) -> Vec<Vec<u8>> {
        let n = self.num_vertices();
        let mut assigned = 0u32;
        let mut out = Vec::new();
        for s in 0..n {
            if assigned >> s & 1 == 1 {
                continue;
            }
            let mut comp = 1u32 << s;
            let mut frontier = comp;
            while frontier != 0 {
                let mut next = 0u32;
                let mut f = frontier;
                while f != 0 {
                    let v = f.trailing_zeros() as usize;
                    f &= f - 1;
                    next |= self.adj[v] & !comp;
                }
                comp |= next;
                frontier = next;
            }
            assigned |= comp;
            let mut verts = Vec::with_capacity(comp.count_ones() as usize);
            let mut c = comp;
            while c != 0 {
                verts.push(c.trailing_zeros() as u8);
                c &= c - 1;
            }
            out.push(verts);
        }
        out
    }

    /// The sub-pattern induced on `vertices`: position `i` of the slice
    /// becomes vertex `i` of the result, keeping labels and every edge of
    /// `self` between selected vertices. Panics on out-of-range or
    /// duplicated entries (via [`Pattern::new`]'s edge checks).
    pub fn induced_on(&self, vertices: &[u8]) -> Pattern {
        let labels = vertices
            .iter()
            .map(|&v| self.vertex_labels[v as usize])
            .collect();
        let mut edges = Vec::new();
        for (i, &u) in vertices.iter().enumerate() {
            for (j, &v) in vertices.iter().enumerate().skip(i + 1) {
                if self.adjacent(u as usize, v as usize) {
                    let l = self.edge_label(u as usize, v as usize).unwrap();
                    edges.push((i as u8, j as u8, l));
                }
            }
        }
        Pattern::new(labels, edges)
    }

    /// The connected sub-patterns with one edge fewer, one per edge whose
    /// removal leaves one, in edge order: removing a cycle edge keeps every
    /// vertex, removing a leaf edge drops its leaf vertex, and removing a
    /// bridge between two non-leaf parts (or the only edge) leaves none.
    /// Labels carry over and the vertices left keep their order. The
    /// candidate rule of frequent subgraph mining (gSpan, DIMSpan) asks
    /// each of these to be frequent.
    pub fn one_edge_deletions(&self) -> Vec<Pattern> {
        let all: Vec<u8> = (0..self.num_vertices() as u8).collect();
        let mut out = Vec::with_capacity(self.edges.len());
        for (at, &(u, v, _)) in self.edges.iter().enumerate() {
            let mut edges = self.edges.clone();
            edges.remove(at);
            let rest = Pattern::new(self.vertex_labels.clone(), edges);
            let sub = match (rest.degree(u as usize), rest.degree(v as usize)) {
                (0, 0) => None,
                (0, _) | (_, 0) => {
                    let leaf = if rest.degree(u as usize) == 0 { u } else { v };
                    let kept: Vec<u8> = all.iter().copied().filter(|&w| w != leaf).collect();
                    Some(rest.induced_on(&kept))
                }
                _ => Some(rest),
            };
            out.extend(sub.filter(Pattern::is_connected));
        }
        out
    }

    /// Whether this pattern is a clique.
    pub fn is_clique(&self) -> bool {
        let n = self.num_vertices();
        self.num_edges() == n * (n - 1) / 2
    }

    /// Relabels vertices by permutation `perm` (`perm[old] = new`),
    /// producing an isomorphic pattern.
    pub fn permuted(&self, perm: &[u8]) -> Pattern {
        let n = self.num_vertices();
        assert_eq!(perm.len(), n);
        let mut labels = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            labels[new as usize] = self.vertex_labels[old];
        }
        let edges = self
            .edges
            .iter()
            .map(|&(u, v, l)| (perm[u as usize], perm[v as usize], l))
            .collect();
        Pattern::new(labels, edges)
    }

    /// Convenience: the complete pattern (clique) on `k` unlabeled vertices.
    pub fn clique(k: usize) -> Pattern {
        let mut edges = Vec::new();
        for u in 0..k as u8 {
            for v in (u + 1)..k as u8 {
                edges.push((u, v));
            }
        }
        Pattern::unlabeled(k, &edges)
    }

    /// Convenience: the path pattern on `k` unlabeled vertices.
    pub fn path(k: usize) -> Pattern {
        let edges: Vec<(u8, u8)> = (1..k as u8).map(|v| (v - 1, v)).collect();
        Pattern::unlabeled(k, &edges)
    }

    /// Convenience: the cycle pattern on `k ≥ 3` unlabeled vertices.
    pub fn cycle(k: usize) -> Pattern {
        assert!(k >= 3);
        let mut edges: Vec<(u8, u8)> = (1..k as u8).map(|v| (v - 1, v)).collect();
        edges.push((0, k as u8 - 1));
        Pattern::unlabeled(k, &edges)
    }

    /// Convenience: the star pattern with `k` leaves (center is vertex 0).
    pub fn star(k: usize) -> Pattern {
        let edges: Vec<(u8, u8)> = (1..=k as u8).map(|v| (0, v)).collect();
        Pattern::unlabeled(k + 1, &edges)
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P(n={},", self.num_vertices())?;
        for (i, l) in self.vertex_labels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ";")?;
        for (i, &(u, v, l)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{u}-{v}:{l}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_graph::builder::graph_from_edges;

    #[test]
    fn construction_normalizes_edges() {
        let p = Pattern::new(vec![0, 1, 2], vec![(2, 0, 5), (1, 2, 3)]);
        assert_eq!(p.edges(), &[(0, 2, 5), (1, 2, 3)]);
        assert!(p.adjacent(0, 2));
        assert!(p.adjacent(2, 0));
        assert!(!p.adjacent(0, 1));
        assert_eq!(p.edge_label(2, 0), Some(5));
        assert_eq!(p.edge_label(0, 1), None);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        Pattern::new(vec![0, 0], vec![(1, 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edges() {
        Pattern::new(vec![0, 0], vec![(0, 1, 0), (1, 0, 3)]);
    }

    #[test]
    fn connectivity() {
        assert!(Pattern::path(4).is_connected());
        assert!(Pattern::clique(5).is_connected());
        assert!(!Pattern::new(vec![0, 0, 0], vec![(0, 1, 0)]).is_connected());
        assert!(Pattern::unlabeled(1, &[]).is_connected());
    }

    #[test]
    fn clique_shapes() {
        assert!(Pattern::clique(4).is_clique());
        assert!(!Pattern::cycle(4).is_clique());
        assert_eq!(Pattern::star(3).degree(0), 3);
        assert_eq!(Pattern::cycle(5).num_edges(), 5);
    }

    #[test]
    fn components_partition_vertices() {
        // Connected: one component with everything.
        assert_eq!(Pattern::clique(4).components(), vec![vec![0, 1, 2, 3]]);
        // Two disjoint edges plus an isolated vertex.
        let p = Pattern::unlabeled(5, &[(0, 3), (1, 4)]);
        let comps = p.components();
        assert_eq!(comps, vec![vec![0, 3], vec![1, 4], vec![2]]);
        // Empty pattern: no components.
        assert!(Pattern::unlabeled(0, &[]).components().is_empty());
    }

    #[test]
    fn induced_on_remaps_edges_and_labels() {
        let p = Pattern::new(
            vec![7, 8, 9, 10],
            vec![(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 4)],
        );
        // Take the triangle in reversed order: new 0 = old 2, new 2 = old 0.
        let q = p.induced_on(&[2, 1, 0]);
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.vertex_label(0), 9);
        assert_eq!(q.vertex_label(2), 7);
        assert_eq!(q.edge_label(0, 1), Some(2));
        assert_eq!(q.edge_label(0, 2), Some(3));
    }

    #[test]
    fn from_vertex_induced_captures_all_edges() {
        // Triangle 0-1-2 plus pendant 3 on 2.
        let g = graph_from_edges(&[7, 8, 9, 7], &[(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 4)]);
        let p = Pattern::from_vertex_induced(&g, &[0, 1, 2], true, true);
        assert_eq!(p.num_vertices(), 3);
        assert_eq!(p.num_edges(), 3);
        assert_eq!(p.vertex_label(0), 7);
        assert_eq!(p.edge_label(0, 1), Some(1));
        // Unlabeled view.
        let pu = Pattern::from_vertex_induced(&g, &[0, 1, 2], false, false);
        assert_eq!(pu.vertex_label(0), 0);
        assert_eq!(pu.edge_label(0, 1), Some(0));
    }

    #[test]
    fn from_edge_induced_maps_endpoints() {
        let g = graph_from_edges(&[7, 8, 9], &[(0, 1, 1), (1, 2, 2)]);
        // Take only edge 1 (between graph vertices 1 and 2).
        let (p, vmap) = Pattern::from_edge_induced(&g, &[1], true, true);
        assert_eq!(p.num_vertices(), 2);
        assert_eq!(p.num_edges(), 1);
        assert_eq!(vmap, vec![1, 2]);
        assert_eq!(p.vertex_label(0), 8);
        assert_eq!(p.edge_label(0, 1), Some(2));
    }

    #[test]
    fn permuted_is_isomorphic_structure() {
        let p = Pattern::new(vec![5, 6, 7], vec![(0, 1, 1), (1, 2, 2)]);
        let q = p.permuted(&[2, 1, 0]);
        assert_eq!(q.vertex_label(2), 5);
        assert_eq!(q.edge_label(1, 2), Some(1));
        assert_eq!(q.edge_label(0, 1), Some(2));
    }

    #[test]
    fn one_edge_deletions_follow_the_edge_kind() {
        let labels = vec![10, 11, 12, 13];
        let p =
            |labels: &[u32], edges: &[(u8, u8, u32)]| Pattern::new(labels.to_vec(), edges.to_vec());
        // Triangle: every edge is on a cycle, so every vertex stays.
        let triangle = p(&labels[..3], &[(0, 1, 1), (0, 2, 2), (1, 2, 3)]);
        assert_eq!(
            triangle.one_edge_deletions(),
            [
                p(&labels[..3], &[(0, 2, 2), (1, 2, 3)]),
                p(&labels[..3], &[(0, 1, 1), (1, 2, 3)]),
                p(&labels[..3], &[(0, 1, 1), (0, 2, 2)]),
            ]
        );
        // 3-edge path: an end edge drops its leaf; the middle edge is a
        // bridge between two non-leaf parts and leaves nothing.
        let path = p(&labels, &[(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        assert_eq!(
            path.one_edge_deletions(),
            [
                p(&[11, 12, 13], &[(0, 1, 2), (1, 2, 3)]),
                p(&[10, 11, 12], &[(0, 1, 1), (1, 2, 2)]),
            ]
        );
        // 3-star: every edge is a leaf edge; the centre stays first.
        let star = p(&labels, &[(0, 1, 1), (0, 2, 2), (0, 3, 3)]);
        assert_eq!(
            star.one_edge_deletions(),
            [
                p(&[10, 12, 13], &[(0, 1, 2), (0, 2, 3)]),
                p(&[10, 11, 13], &[(0, 1, 1), (0, 2, 3)]),
                p(&[10, 11, 12], &[(0, 1, 1), (0, 2, 2)]),
            ]
        );
        // 4-cycle with the chord 0-2: all five edges are cycle edges.
        let edges = [(0, 1, 1), (0, 2, 5), (0, 3, 4), (1, 2, 2), (2, 3, 3)];
        let chorded = p(&labels, &edges);
        let subs = chorded.one_edge_deletions();
        assert_eq!(subs.len(), 5);
        for (at, sub) in subs.iter().enumerate() {
            let mut rest = edges.to_vec();
            rest.remove(at);
            assert_eq!(*sub, p(&labels, &rest));
        }
        // The only edge of a pattern leaves no connected sub-pattern.
        assert!(p(&[1, 2], &[(0, 1, 0)]).one_edge_deletions().is_empty());
    }

    #[test]
    fn display_is_stable() {
        let p = Pattern::new(vec![1, 2], vec![(0, 1, 3)]);
        assert_eq!(p.to_string(), "P(n=2,1,2;0-1:3)");
    }
}
