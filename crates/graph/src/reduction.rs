//! Graph reduction (§4.3): materialize a reduced view of the input graph.
//!
//! Fractal lets the analyst (or the system, transparently) specify a reduced
//! graph `G_i` between fractal steps via vertex/edge filters — Fig. 10's
//! `vfilter` (R1) and `efilter` (R2) — or from the set of elements that
//! participated in the previous step's subgraphs (Equation 1). The reduced
//! graph is a fresh compact CSR with dense ids plus maps back to the
//! original ids so results are always reported in original-graph terms.

use crate::bitset::Bitset;
use crate::keywords::KeywordSets;
use crate::{EdgeId, Graph, VertexId};

/// A mask of vertices to keep.
pub type VertexMask = Bitset;
/// A mask of edges to keep.
pub type EdgeMask = Bitset;

/// A materialized reduced graph together with the id maps back to its
/// parent graph.
#[derive(Debug, Clone)]
pub struct ReducedGraph {
    /// The compact reduced graph (dense ids `0..n'`, `0..m'`).
    pub graph: Graph,
    /// `orig_vertices[v']` is the parent id of reduced vertex `v'`.
    pub orig_vertices: Vec<u32>,
    /// `orig_edges[e']` is the parent id of reduced edge `e'`.
    pub orig_edges: Vec<u32>,
}

impl ReducedGraph {
    /// Maps a reduced vertex id back to the parent graph.
    #[inline]
    pub fn to_orig_vertex(&self, v: VertexId) -> VertexId {
        VertexId(self.orig_vertices[v.index()])
    }

    /// Maps a reduced edge id back to the parent graph.
    #[inline]
    pub fn to_orig_edge(&self, e: EdgeId) -> EdgeId {
        EdgeId(self.orig_edges[e.index()])
    }

    /// Fraction of parent vertices removed, in `[0, 1]`.
    pub fn vertex_reduction(&self, parent: &Graph) -> f64 {
        if parent.num_vertices() == 0 {
            return 0.0;
        }
        1.0 - self.graph.num_vertices() as f64 / parent.num_vertices() as f64
    }

    /// Fraction of parent edges removed, in `[0, 1]`.
    pub fn edge_reduction(&self, parent: &Graph) -> f64 {
        if parent.num_edges() == 0 {
            return 0.0;
        }
        1.0 - self.graph.num_edges() as f64 / parent.num_edges() as f64
    }
}

impl Graph {
    /// Materializes the subgraph induced by `vmask` and `emask`: an edge
    /// survives iff its mask bit is set **and** both endpoints survive.
    /// Labels and keyword sets are carried over.
    pub fn reduce(&self, vmask: &VertexMask, emask: &EdgeMask) -> ReducedGraph {
        assert_eq!(
            vmask.len(),
            self.num_vertices(),
            "vertex mask size mismatch"
        );
        assert_eq!(emask.len(), self.num_edges(), "edge mask size mismatch");

        let mut new_id = vec![u32::MAX; self.num_vertices()];
        let mut orig_vertices = Vec::with_capacity(vmask.count());
        for v in vmask.iter_ones() {
            new_id[v] = orig_vertices.len() as u32;
            orig_vertices.push(v as u32);
        }

        let mut kept_edges: Vec<u32> = Vec::new();
        for e in emask.iter_ones() {
            let (s, d) = (self.edge_src[e] as usize, self.edge_dst[e] as usize);
            if new_id[s] != u32::MAX && new_id[d] != u32::MAX {
                kept_edges.push(e as u32);
            }
        }

        let n = orig_vertices.len();
        let m = kept_edges.len();
        // Dense edge renumbering: `edge_new[old] = new` for kept edges.
        let mut edge_new = vec![u32::MAX; self.num_edges()];
        let mut edge_src = vec![0u32; m];
        let mut edge_dst = vec![0u32; m];
        let mut edge_labels = vec![0u32; m];
        for (ne, &oe) in kept_edges.iter().enumerate() {
            edge_new[oe as usize] = ne as u32;
            let s = new_id[self.edge_src[oe as usize] as usize];
            let d = new_id[self.edge_dst[oe as usize] as usize];
            edge_src[ne] = s.min(d);
            edge_dst[ne] = s.max(d);
            edge_labels[ne] = self.edge_labels[oe as usize];
        }
        // Both renumberings above are monotone in the original ids, so
        // streaming each kept vertex's already-sorted CSR adjacency through
        // the map-probe kernel yields sorted reduced neighborhoods directly
        // — no per-neighborhood permutation sort needed.
        let mut kc = crate::kernels::KernelCounters::default();
        let mut offsets = vec![0u32; n + 1];
        let mut nbr_vertices: Vec<u32> = Vec::with_capacity(2 * m);
        let mut nbr_edges: Vec<u32> = Vec::with_capacity(2 * m);
        for (nv, &ov) in orig_vertices.iter().enumerate() {
            let (lo, hi) = (
                self.offsets[ov as usize] as usize,
                self.offsets[ov as usize + 1] as usize,
            );
            crate::kernels::retain_mapped(
                &self.nbr_vertices[lo..hi],
                &self.nbr_edges[lo..hi],
                &new_id,
                &edge_new,
                &mut nbr_vertices,
                &mut nbr_edges,
                &mut kc,
            );
            offsets[nv + 1] = nbr_vertices.len() as u32;
        }
        debug_assert_eq!(nbr_vertices.len(), 2 * m);

        let vertex_labels: Vec<u32> = orig_vertices
            .iter()
            .map(|&v| self.vertex_labels[v as usize])
            .collect();
        let vertex_keywords = self.vertex_keywords.as_ref().map(|ks| {
            KeywordSets::from_sets(
                orig_vertices
                    .iter()
                    .map(|&v| ks.get(v as usize).to_vec())
                    .collect(),
            )
        });
        let edge_keywords = self.edge_keywords.as_ref().map(|ks| {
            KeywordSets::from_sets(
                kept_edges
                    .iter()
                    .map(|&e| ks.get(e as usize).to_vec())
                    .collect(),
            )
        });

        let graph = Graph {
            offsets,
            nbr_vertices,
            nbr_edges,
            edge_src,
            edge_dst,
            vertex_labels,
            edge_labels,
            vertex_keywords,
            edge_keywords,
            keyword_table: self.keyword_table.clone(),
            num_vertex_labels: self.num_vertex_labels,
            num_edge_labels: self.num_edge_labels,
            clique_dag: Default::default(),
        };
        debug_assert!(graph.validate().is_ok());
        ReducedGraph {
            graph,
            orig_vertices,
            orig_edges: kept_edges,
        }
    }

    /// R1 (`vfilter`): keeps only vertices satisfying `f`, plus the edges
    /// between survivors.
    pub fn vfilter(&self, mut f: impl FnMut(VertexId, &Graph) -> bool) -> ReducedGraph {
        let mut vmask = Bitset::new(self.num_vertices());
        for v in self.vertices() {
            if f(v, self) {
                vmask.set(v.index());
            }
        }
        self.reduce(&vmask, &Bitset::full(self.num_edges()))
    }

    /// R2 (`efilter`): keeps only edges satisfying `f`; vertices that lose
    /// all incident edges are dropped too (they cannot participate in any
    /// connected subgraph of more than one vertex).
    pub fn efilter(&self, mut f: impl FnMut(EdgeId, &Graph) -> bool) -> ReducedGraph {
        let mut emask = Bitset::new(self.num_edges());
        let mut vmask = Bitset::new(self.num_vertices());
        for e in self.edges() {
            if f(e, self) {
                emask.set(e.index());
                let (s, d) = self.edge_endpoints(e);
                vmask.set(s.index());
                vmask.set(d.index());
            }
        }
        self.reduce(&vmask, &emask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::Label;

    fn diamond() -> Graph {
        // 0-1-2-3 cycle plus chord 1-3; labels 0,1,0,1.
        graph_from_edges(
            &[0, 1, 0, 1],
            &[(0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1), (1, 3, 2)],
        )
    }

    #[test]
    fn vfilter_keeps_induced_edges() {
        let g = diamond();
        let r = g.vfilter(|v, g| g.vertex_label(v) == Label(1));
        // Vertices 1 and 3 survive; the only edge between them is 1-3.
        assert_eq!(r.graph.num_vertices(), 2);
        assert_eq!(r.graph.num_edges(), 1);
        assert_eq!(r.to_orig_vertex(VertexId(0)), VertexId(1));
        assert_eq!(r.to_orig_vertex(VertexId(1)), VertexId(3));
        let e = EdgeId(0);
        assert_eq!(g.edge_label(r.to_orig_edge(e)), Label(2));
        assert!((r.vertex_reduction(&g) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn efilter_drops_isolated_vertices() {
        let g = diamond();
        // Keep only the chord 1-3.
        let r = g.efilter(|e, g| g.edge_label(e) == Label(2));
        assert_eq!(r.graph.num_vertices(), 2);
        assert_eq!(r.graph.num_edges(), 1);
        assert!((r.edge_reduction(&g) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn reduce_full_masks_is_identity_shaped() {
        let g = diamond();
        let r = g.reduce(
            &Bitset::full(g.num_vertices()),
            &Bitset::full(g.num_edges()),
        );
        assert_eq!(r.graph.num_vertices(), g.num_vertices());
        assert_eq!(r.graph.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(r.graph.neighbors(v), g.neighbors(v));
            assert_eq!(r.graph.vertex_label(v), g.vertex_label(v));
        }
    }

    #[test]
    fn keywords_survive_reduction() {
        let mut b = crate::GraphBuilder::new();
        let u = b.add_vertex(Label(0));
        let v = b.add_vertex(Label(0));
        let w = b.add_vertex(Label(1));
        let e1 = b.add_edge(u, v, Label(0)).unwrap();
        b.add_edge(v, w, Label(0)).unwrap();
        let k = b.intern_keyword("paris");
        b.add_edge_keyword(e1, k);
        b.add_vertex_keyword(u, k);
        let g = b.build();
        let r = g.vfilter(|x, g| g.vertex_label(x) == Label(0));
        assert_eq!(r.graph.num_vertices(), 2);
        assert_eq!(r.graph.num_edges(), 1);
        assert_eq!(r.graph.vertex_keywords(VertexId(0)), &[k]);
        assert_eq!(r.graph.edge_keywords(EdgeId(0)), &[k]);
        assert!(r.graph.keyword_table().is_some());
    }

    #[test]
    fn empty_masks_yield_empty_graph() {
        let g = diamond();
        let r = g.reduce(&Bitset::new(g.num_vertices()), &Bitset::new(g.num_edges()));
        assert_eq!(r.graph.num_vertices(), 0);
        assert_eq!(r.graph.num_edges(), 0);
    }
}
