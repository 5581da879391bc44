//! The degree-ordered DAG of a graph: the orientation KClist [12] lists
//! cliques in (Appendix B), kept with the graph it orients
//! ([`Graph::clique_dag`]).

use crate::{Graph, VertexId};

/// `u → v` iff `(deg u, u) < (deg v, v)`, in CSR form: each vertex's
/// out-neighbours sorted by id, with the id of the edge to each. Every
/// undirected edge is one out-edge, so every clique is one DAG path.
#[derive(Debug)]
pub struct CliqueDag {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edges: Vec<u32>,
}

impl CliqueDag {
    /// Orients `g` from scratch. Enumeration reads the DAG kept with the
    /// graph instead ([`Graph::clique_dag`]).
    pub fn build(g: &Graph) -> Self {
        let mut offsets = Vec::with_capacity(g.num_vertices() + 1);
        let mut targets = Vec::with_capacity(g.num_edges());
        let mut edges = Vec::with_capacity(g.num_edges());
        offsets.push(0);
        for v in g.vertices() {
            let rank = (g.degree(v), v.raw());
            for (&u, &e) in g.neighbors(v).iter().zip(g.incident_edges(v)) {
                if rank < (g.degree(VertexId(u)), u) {
                    targets.push(u);
                    edges.push(e);
                }
            }
            offsets.push(targets.len() as u32);
        }
        CliqueDag {
            offsets,
            targets,
            edges,
        }
    }

    /// Out-neighbours of `v`, sorted by id.
    #[inline(always)]
    pub fn out(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The edge ids of [`out`](Self::out)`(v)`, parallel to it.
    #[inline(always)]
    pub fn out_edges(&self, v: u32) -> &[u32] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The bytes the DAG of `g` takes: 8 per edge, 4 per vertex plus one.
    pub fn bound_bytes(g: &Graph) -> u64 {
        8 * g.num_edges() as u64 + 4 * (g.num_vertices() as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::sync::Arc;

    #[test]
    fn every_edge_is_one_out_edge_towards_the_higher_rank() {
        let g = gen::mico_like(120, 1, 4);
        let dag = CliqueDag::build(&g);
        let rank = |v: u32| (g.degree(VertexId(v)), v);
        let mut seen = vec![false; g.num_edges()];
        for v in g.vertices() {
            let out = dag.out(v.raw());
            assert!(out.windows(2).all(|w| w[0] < w[1]));
            for (&u, &e) in out.iter().zip(dag.out_edges(v.raw())) {
                assert!(rank(v.raw()) < rank(u));
                assert_eq!(g.edge_between(v, VertexId(u)).map(|e| e.raw()), Some(e));
                assert!(!std::mem::replace(&mut seen[e as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
        let bytes = 4 * (dag.offsets.len() + dag.targets.len() + dag.edges.len()) as u64;
        assert_eq!(bytes, CliqueDag::bound_bytes(&g));
    }

    #[test]
    fn the_kept_dag_is_built_once_shared_by_clones_and_dropped_with_its_graph() {
        let g = gen::complete(6);
        assert!(g.clique_dag.get().is_none(), "built before first use");
        let first = Arc::clone(g.clique_dag());
        assert!(Arc::ptr_eq(&first, g.clique_dag()));
        assert_eq!(first.out(0).len(), 5);
        let shared = g.clone();
        assert!(Arc::ptr_eq(&first, shared.clique_dag()));
        let weak = Arc::downgrade(&first);
        drop((first, g, shared));
        assert!(weak.upgrade().is_none(), "the DAG outlived its graph");
    }
}
