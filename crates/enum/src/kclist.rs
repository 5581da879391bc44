//! The custom KClist clique enumerator of Appendix B.
//!
//! KClist [12] lists k-cliques by orienting the graph into a DAG (edges
//! point from lower to higher degree, ties by id) and intersecting
//! out-neighborhoods: the candidate set after matching a clique prefix is
//! the intersection of the out-neighborhoods of all its vertices, so every
//! clique is produced exactly once in DAG order and the search space never
//! leaves clique territory. The per-level candidate sets are the custom
//! enumerator state of Listing 6; when work is stolen the state is rebuilt
//! from the prefix (Listing 6's `extend` chain replayed from scratch).

use crate::enumerator::{SubgraphEnumerator, MAX_VERTEX_WORDS};
use crate::subgraph::Subgraph;
use fractal_graph::{ExtensionKernels, Graph, KernelCounters, VertexId};
use std::sync::Arc;

/// Degree-ordered DAG view of a graph, shared immutably among cores.
#[derive(Debug)]
pub struct CliqueDag {
    /// `out[v]` = out-neighbors of `v` (higher degree-order), sorted by id.
    out: Vec<Vec<u32>>,
}

impl CliqueDag {
    /// Orients `g`: `u → v` iff `(deg(u), u) < (deg(v), v)`.
    pub fn build(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut out = vec![Vec::new(); n];
        for v in 0..n as u32 {
            let dv = g.degree(VertexId(v));
            for &u in g.neighbors(VertexId(v)) {
                let du = g.degree(VertexId(u));
                if (dv, v) < (du, u) {
                    out[v as usize].push(u);
                }
            }
            // CSR neighbors are sorted by id already, and the filter
            // preserves order.
            debug_assert!(out[v as usize].windows(2).all(|w| w[0] < w[1]));
        }
        CliqueDag { out }
    }

    /// Out-neighbors of `v`, sorted by id.
    #[inline]
    pub fn out(&self, v: u32) -> &[u32] {
        &self.out[v as usize]
    }
}

/// Custom enumerator listing cliques via candidate-set intersection
/// (Listing 6/7).
///
/// The per-level candidate sets live in the bump arena of
/// [`ExtensionKernels`]: DFS levels are strictly nested, so each level is a
/// contiguous arena region and retract is a truncation — no per-extension
/// allocation. The arena is per-core scratch; a stolen unit rebuilds it by
/// replaying the prefix ([`SubgraphEnumerator::rebuild`]).
pub struct KClistEnumerator {
    dag: Arc<CliqueDag>,
    /// Arena-backed candidate-set stack + hybrid intersection kernels.
    kernels: ExtensionKernels,
}

impl KClistEnumerator {
    /// Builds the enumerator (and its DAG) for `g`.
    pub fn new(g: &Graph) -> Self {
        Self::with_dag(Arc::new(CliqueDag::build(g)))
    }

    /// Builds from an existing shared DAG.
    pub fn with_dag(dag: Arc<CliqueDag>) -> Self {
        KClistEnumerator {
            dag,
            kernels: ExtensionKernels::new(),
        }
    }

    /// The shared DAG (for cloning onto other cores cheaply).
    pub fn dag(&self) -> Arc<CliqueDag> {
        self.dag.clone()
    }
}

impl SubgraphEnumerator for KClistEnumerator {
    fn compute_extensions(&mut self, g: &Graph, sg: &Subgraph, out: &mut Vec<u64>) -> u64 {
        out.clear();
        if sg.num_vertices() == 0 {
            out.extend(0..g.num_vertices() as u64);
            return g.num_vertices() as u64;
        }
        debug_assert_eq!(self.kernels.depth(), sg.num_vertices());
        let cands = self.kernels.top();
        out.extend(cands.iter().map(|&v| v as u64));
        cands.len() as u64
    }

    fn extend(&mut self, g: &Graph, sg: &mut Subgraph, word: u64) {
        let v = word as u32;
        self.kernels.ensure_universe(g.num_vertices());
        if self.kernels.depth() == 0 {
            self.kernels.push_level_copy(self.dag.out(v));
        } else {
            self.kernels.push_level_intersect(self.dag.out(v));
        }
        // A clique's induced edges are known without looking: the candidate
        // is adjacent to every vertex of the prefix.
        let all = (1u64 << sg.num_vertices()) - 1;
        sg.push_vertex_induced(g, v, all as u32);
    }

    fn retract(&mut self, _g: &Graph, sg: &mut Subgraph) {
        self.kernels.pop_level();
        sg.pop_vertex_induced();
    }

    fn max_words(&self) -> usize {
        MAX_VERTEX_WORDS
    }

    fn reset_state(&mut self, _g: &Graph) {
        self.kernels.reset_levels();
    }

    fn take_kernel_counters(&mut self) -> KernelCounters {
        self.kernels.take_counters()
    }

    fn clone_boxed(&self) -> Box<dyn SubgraphEnumerator> {
        Box::new(KClistEnumerator::with_dag(self.dag.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerator::tests::run_to_depth;
    use fractal_graph::builder::unlabeled_from_edges;
    use fractal_graph::gen;

    fn count_cliques_kclist(g: &Graph, k: usize) -> usize {
        run_to_depth(g, Box::new(KClistEnumerator::new(g)), k).len()
    }

    #[test]
    fn complete_graph_counts() {
        // K5 has C(5,k) k-cliques.
        let g = gen::complete(5);
        assert_eq!(count_cliques_kclist(&g, 1), 5);
        assert_eq!(count_cliques_kclist(&g, 2), 10);
        assert_eq!(count_cliques_kclist(&g, 3), 10);
        assert_eq!(count_cliques_kclist(&g, 4), 5);
        assert_eq!(count_cliques_kclist(&g, 5), 1);
    }

    #[test]
    fn triangle_with_tail() {
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(count_cliques_kclist(&g, 3), 1);
        assert_eq!(count_cliques_kclist(&g, 4), 0);
    }

    #[test]
    fn cycle_has_no_triangles() {
        assert_eq!(count_cliques_kclist(&gen::cycle(6), 3), 0);
    }

    #[test]
    fn every_listed_subgraph_is_a_clique() {
        let g = gen::erdos_renyi(40, 160, 1, 3);
        for (vs, es) in run_to_depth(&g, Box::new(KClistEnumerator::new(&g)), 3) {
            assert_eq!(vs.len(), 3);
            assert_eq!(es.len(), 3, "not a clique: {vs:?}");
        }
    }

    #[test]
    fn agrees_with_generic_enumerator_on_random_graphs() {
        use crate::enumerator::VertexInducedEnumerator;
        for seed in 0..3 {
            let g = gen::erdos_renyi(25, 80, 1, seed);
            for k in 2..=4 {
                let generic = run_to_depth(&g, Box::new(VertexInducedEnumerator::new()), k)
                    .into_iter()
                    .filter(|(_, es)| es.len() == k * (k - 1) / 2)
                    .count();
                assert_eq!(count_cliques_kclist(&g, k), generic, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn rebuild_restores_candidate_stack() {
        let g = gen::complete(5);
        let mut en = KClistEnumerator::new(&g);
        let mut sg = Subgraph::new(&g);
        en.extend(&g, &mut sg, 0);
        en.extend(&g, &mut sg, 1);
        let mut exts = Vec::new();
        en.compute_extensions(&g, &sg, &mut exts);
        // Rebuild on a second instance.
        let mut en2 = KClistEnumerator::with_dag(en.dag());
        let mut sg2 = Subgraph::new(&g);
        en2.rebuild(&g, &mut sg2, &[0, 1]);
        let mut exts2 = Vec::new();
        en2.compute_extensions(&g, &sg2, &mut exts2);
        assert_eq!(exts, exts2);
        assert_eq!(sg.snapshot(), sg2.snapshot());
    }
}
