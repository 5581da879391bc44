//! The custom KClist clique enumerator of Appendix B.
//!
//! KClist [12] lists k-cliques in the degree-ordered DAG of the graph
//! ([`CliqueDag`], kept with the graph): every clique is one DAG path, so
//! it is produced exactly once and the search never leaves clique
//! territory. As in Danisch et al. (WWW 2018), a clique is grown inside
//! the sub-DAG its root's out-list induces: local id `j` is
//! `out(root)[j]`, each local vertex's out-row is a bitset over `0..d`
//! plus the edge ids of its set bits in column order, and the candidate
//! set below a prefix is the word-AND of its members' rows (Listing 6's
//! per-level state). A pushed vertex's edges come from the rows too, so
//! nothing is searched for in the global adjacency. When work is stolen
//! the state is rebuilt from the prefix (Listing 6's `extend` chain
//! replayed from scratch).

use crate::enumerator::{SubgraphEnumerator, MAX_VERTEX_WORDS};
use crate::subgraph::Subgraph;
pub use fractal_graph::CliqueDag;
use fractal_graph::{EdgeId, Graph, KernelCounters, VertexId};
use std::sync::Arc;

/// The sub-DAG induced on one root's out-list, in local ids.
#[derive(Debug, Default)]
struct LocalDag {
    /// The root the rows describe.
    root: Option<u32>,
    /// Words per row: `⌈d / 64⌉`.
    words: usize,
    /// Row `i` at `words * i`: bit `j` set iff `out(root)[i] → out(root)[j]`.
    rows: Vec<u64>,
    /// The edge id of each set bit, row by row in column order; row `i`'s
    /// start at `starts[i]`.
    edges: Vec<u32>,
    starts: Vec<u32>,
    /// Bit `v` set iff `v` is in the out-list being built (all clear
    /// between builds).
    members: Vec<u64>,
}

impl LocalDag {
    /// Builds the sub-DAG of `root`; returns the out-list entries scanned.
    fn build(&mut self, dag: &CliqueDag, root: u32, n: usize) -> u64 {
        let out = dag.out(root);
        self.words = out.len().div_ceil(64);
        self.rows.clear();
        self.rows.resize(out.len() * self.words, 0);
        self.edges.clear();
        self.starts.clear();
        self.starts.push(0);
        self.members.resize(n.div_ceil(64), 0);
        for &w in out {
            self.members[w as usize / 64] |= 1 << (w % 64);
        }
        let mut scanned = 0;
        for (i, &w) in out.iter().enumerate() {
            let row = &mut self.rows[i * self.words..(i + 1) * self.words];
            // Few entries hit, so the filter is a bit test that stays in L1;
            // a hit's column is found from the last one on, since both
            // lists are sorted by id, and so are the row's edge ids.
            let mut j = 0;
            for (&x, &e) in dag.out(w).iter().zip(dag.out_edges(w)) {
                if self.members[x as usize / 64] >> (x % 64) & 1 == 1 {
                    j += out[j..].partition_point(|&u| u < x);
                    row[j / 64] |= 1 << (j % 64);
                    self.edges.push(e);
                }
            }
            scanned += dag.out(w).len() as u64;
            self.starts.push(self.edges.len() as u32);
        }
        for &w in out {
            self.members[w as usize / 64] = 0;
        }
        self.root = Some(root);
        scanned
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..(i + 1) * self.words]
    }

    /// The id of edge `i → j`: its rank in row `i` is the row's popcount
    /// below column `j`.
    fn edge(&self, i: usize, j: usize) -> u32 {
        let row = self.row(i);
        let below: u32 = row[..j / 64].iter().map(|w| w.count_ones()).sum();
        let rank = below + (row[j / 64] & ((1 << (j % 64)) - 1)).count_ones();
        self.edges[(self.starts[i] + rank) as usize]
    }
}

/// Custom enumerator listing cliques via candidate-set intersection
/// (Listing 6/7). Words are global vertex ids, listed in ascending id
/// order; all other state is per-core scratch.
pub struct KClistEnumerator {
    dag: Arc<CliqueDag>,
    /// The clique's first vertex.
    root: u32,
    /// Local ids of the members after the root, in push order.
    path: Vec<usize>,
    local: LocalDag,
    /// The candidate sets below three members on, `local.words` each (the
    /// set below two is the second member's row).
    levels: Vec<u64>,
    /// A push's `(member position, edge id)` pairs.
    matched: Vec<(u8, u32)>,
    counters: KernelCounters,
}

impl KClistEnumerator {
    /// The enumerator over the DAG kept with `g` ([`Graph::clique_dag`]).
    pub fn new(g: &Graph) -> Self {
        Self::with_dag(Arc::clone(g.clique_dag()))
    }

    /// Builds from an existing shared DAG.
    pub fn with_dag(dag: Arc<CliqueDag>) -> Self {
        KClistEnumerator {
            dag,
            root: 0,
            path: Vec::new(),
            local: LocalDag::default(),
            levels: Vec::new(),
            matched: Vec::new(),
            counters: KernelCounters::default(),
        }
    }

    fn ensure_local(&mut self, g: &Graph) {
        if self.local.root != Some(self.root) {
            let scanned = self.local.build(&self.dag, self.root, g.num_vertices());
            self.counters.elements_scanned += scanned;
        }
    }

    /// The candidate set below `depth >= 2` members.
    fn cands(&self, depth: usize) -> &[u64] {
        match depth {
            2 => self.local.row(self.path[0]),
            _ => &self.levels[self.levels.len() - self.local.words..],
        }
    }
}

impl SubgraphEnumerator for KClistEnumerator {
    fn compute_extensions(&mut self, g: &Graph, sg: &Subgraph, out: &mut Vec<u64>) -> u64 {
        out.clear();
        match sg.num_vertices() {
            0 => out.extend(0..g.num_vertices() as u64),
            1 => out.extend(self.dag.out(self.root).iter().map(|&v| v as u64)),
            depth => {
                self.ensure_local(g);
                let members = self.dag.out(self.root);
                for (at, &word) in self.cands(depth).iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        out.push(members[at * 64 + bits.trailing_zeros() as usize] as u64);
                        bits &= bits - 1;
                    }
                }
            }
        }
        out.len() as u64
    }

    fn extend(&mut self, g: &Graph, sg: &mut Subgraph, word: u64) {
        let v = word as u32;
        let depth = sg.num_vertices();
        if depth == 0 {
            self.root = v;
            return sg.push_matched(v, &[]);
        }
        let members = self.dag.out(self.root);
        let j = members.partition_point(|&u| u < v);
        debug_assert_eq!(members.get(j), Some(&v), "{v} is not in out({})", self.root);
        self.matched.clear();
        self.matched.push((0, self.dag.out_edges(self.root)[j]));
        if depth >= 2 {
            self.ensure_local(g);
            // The new level: the parent's set ANDed with `v`'s row.
            let (words, at) = (self.local.words, self.levels.len());
            match depth {
                2 => self.levels.extend_from_slice(self.local.row(self.path[0])),
                _ => self.levels.extend_from_within(at - words..),
            }
            for (a, &b) in self.levels[at..].iter_mut().zip(self.local.row(j)) {
                *a &= b;
            }
            self.counters.elements_scanned += words as u64;
            for (p, &i) in self.path.iter().enumerate() {
                self.matched.push((p as u8 + 1, self.local.edge(i, j)));
            }
            // The edges in ascending member id, as vertex-induced growth
            // lists them.
            let vs = sg.vertices();
            self.matched
                .sort_unstable_by_key(|&(at, _)| vs[at as usize]);
        }
        debug_assert!(self.matched.iter().all(|&(at, e)| {
            let u = VertexId(sg.vertices()[at as usize]);
            g.edge_between(u, VertexId(v)) == Some(EdgeId(e))
        }));
        sg.push_matched(v, &self.matched);
        self.path.push(j);
    }

    fn retract(&mut self, _g: &Graph, sg: &mut Subgraph) {
        // With `d` members there are `d - 1` path entries and `d - 2`
        // levels; `depth` members are left after the pop.
        let depth = sg.num_vertices() - 1;
        sg.pop_vertex_induced();
        self.path.truncate(depth.saturating_sub(1));
        self.levels
            .truncate(depth.saturating_sub(2) * self.local.words);
    }

    fn max_words(&self) -> usize {
        MAX_VERTEX_WORDS
    }

    fn reset_state(&mut self, _g: &Graph) {
        // A root's sub-DAG stays valid for a stolen unit of the same root.
        self.path.clear();
        self.levels.clear();
    }

    /// `arena_high_water_bytes` reads the sub-DAG's scratch (the member
    /// bitmap, a bit per vertex, aside).
    fn take_kernel_counters(&mut self) -> KernelCounters {
        let l = &self.local;
        let bytes = 8 * (l.rows.capacity() + self.levels.capacity())
            + 4 * (l.edges.capacity() + l.starts.capacity());
        let c = &mut self.counters;
        c.arena_high_water_bytes = c.arena_high_water_bytes.max(bytes as u64);
        c.take()
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
        let mut en2 = KClistEnumerator::with_dag(Arc::clone(g.clique_dag()));
        let mut sg2 = Subgraph::new(&g);
        en2.rebuild(&g, &mut sg2, &[0, 1]);
        let mut exts2 = Vec::new();
        en2.compute_extensions(&g, &sg2, &mut exts2);
        assert_eq!(exts, exts2);
        assert_eq!(sg.snapshot(), sg2.snapshot());
    }

    /// A thief handed any prefix of the walk — its enumerator last used
    /// on another root, so its sub-DAG is stale — lists the same
    /// extensions and holds the same subgraph as the walker, on one-word
    /// and two-word sub-DAGs.
    #[test]
    fn rebuild_from_any_prefix_on_a_reused_enumerator() {
        fn walk(
            g: &Graph,
            en: &mut KClistEnumerator,
            sg: &mut Subgraph,
            prefix: &mut Vec<u64>,
            depth: usize,
            thief: &mut KClistEnumerator,
            checked: &mut usize,
        ) {
            let mut exts = Vec::new();
            en.compute_extensions(g, sg, &mut exts);
            if prefix.len() % 2 == 1 || exts.len() % 5 == 1 {
                let mut stolen = Subgraph::new(g);
                thief.rebuild(g, &mut stolen, prefix);
                let mut again = Vec::new();
                thief.compute_extensions(g, &stolen, &mut again);
                assert_eq!(again, exts, "after {prefix:?}");
                assert_eq!(stolen.snapshot(), sg.snapshot(), "after {prefix:?}");
                *checked += 1;
            }
            if prefix.len() == depth {
                return;
            }
            for w in exts {
                en.extend(g, sg, w);
                prefix.push(w);
                walk(g, en, sg, prefix, depth, thief, checked);
                prefix.pop();
                en.retract(g, sg);
            }
        }
        for (g, depth) in [(gen::erdos_renyi(50, 400, 1, 9), 5), (gen::complete(70), 3)] {
            let mut en = KClistEnumerator::new(&g);
            let mut thief = KClistEnumerator::new(&g);
            let (mut sg, mut checked) = (Subgraph::new(&g), 0);
            walk(
                &g,
                &mut en,
                &mut sg,
                &mut Vec::new(),
                depth,
                &mut thief,
                &mut checked,
            );
            assert!(checked > 100, "{checked} prefixes checked");
        }
    }
}
