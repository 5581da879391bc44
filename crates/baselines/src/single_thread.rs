//! Efficient single-thread baselines for the COST analysis (§5.2.4,
//! Fig. 18 and Fig. 20b): "the number of execution threads a system needs
//! to outperform an efficient single-thread implementation" [38].
//!
//! These are deliberately lean: tight DFS loops, no runtime, no queues, no
//! stealing — the strongest sequential opponents we can field.

use crate::budget::{Budget, BudgetTracker, Outcome};
use fractal_graph::{Graph, VertexId};
use fractal_pattern::canon::CodeCache;
use fractal_pattern::{CanonicalCode, ExplorationPlan, Pattern};
use std::collections::HashMap;

/// Gtries-like motif counting [46]: single-thread canonical DFS with a
/// pattern-code memo cache.
pub fn gtries_motifs(g: &Graph, k: usize) -> HashMap<CanonicalCode, u64> {
    gtries_motifs_labeled(g, k, (false, false))
}

/// [`gtries_motifs`] with patterns keyed by `(vertex labels, edge labels)`
/// as `flags` says.
pub fn gtries_motifs_labeled(
    g: &Graph,
    k: usize,
    flags: (bool, bool),
) -> HashMap<CanonicalCode, u64> {
    let mut counts: HashMap<CanonicalCode, u64> = HashMap::new();
    let mut cache = CodeCache::new();
    let mut prefix: Vec<u32> = Vec::with_capacity(k);
    let mut cand_stack: Vec<Vec<u32>> = Vec::new();

    fn rec(
        g: &Graph,
        k: usize,
        flags: (bool, bool),
        prefix: &mut Vec<u32>,
        cand_stack: &mut Vec<Vec<u32>>,
        cache: &mut CodeCache,
        counts: &mut HashMap<CanonicalCode, u64>,
    ) {
        if prefix.len() == k {
            let p = Pattern::from_vertex_induced(g, prefix, flags.0, flags.1);
            *counts
                .entry(cache.canonical_form(&p).code.clone())
                .or_insert(0) += 1;
            return;
        }
        let cands: Vec<u32> = if prefix.is_empty() {
            (0..g.num_vertices() as u32).collect()
        } else {
            let mut c: Vec<u32> = prefix
                .iter()
                .flat_map(|&v| g.neighbors(VertexId(v)).iter().copied())
                .filter(|&u| !prefix.contains(&u))
                .collect();
            c.sort_unstable();
            c.dedup();
            c.retain(|&u| fractal_enum::canonical::canonical_vertex_extension(g, prefix, u));
            c
        };
        cand_stack.push(cands);
        let cands = cand_stack.last().unwrap().clone();
        for u in cands {
            prefix.push(u);
            rec(g, k, flags, prefix, cand_stack, cache, counts);
            prefix.pop();
        }
        cand_stack.pop();
    }
    rec(
        g,
        k,
        flags,
        &mut prefix,
        &mut cand_stack,
        &mut cache,
        &mut counts,
    );
    counts
}

/// Gtries-like clique counting: ordered expansion where every candidate
/// must be adjacent to the whole prefix and larger than the last vertex.
pub fn gtries_cliques(g: &Graph, k: usize) -> u64 {
    fn rec(g: &Graph, k: usize, prefix: &mut Vec<u32>, count: &mut u64) {
        if prefix.len() == k {
            *count += 1;
            return;
        }
        let last = *prefix.last().unwrap();
        // Neighbors of the last vertex, greater than it, adjacent to all.
        let nbrs = g.neighbors(VertexId(last));
        let start = nbrs.partition_point(|&u| u <= last);
        for &u in &nbrs[start..] {
            if prefix[..prefix.len() - 1]
                .iter()
                .all(|&v| g.are_adjacent(VertexId(v), VertexId(u)))
            {
                prefix.push(u);
                rec(g, k, prefix, count);
                prefix.pop();
            }
        }
    }
    let mut count = 0;
    let mut prefix = Vec::with_capacity(k);
    for v in 0..g.num_vertices() as u32 {
        prefix.push(v);
        rec(g, k, &mut prefix, &mut count);
        prefix.pop();
    }
    count
}

/// Single-thread KClist [12]: degree-ordered DAG + candidate-set
/// intersections (Fig. 20b's clique baseline).
pub fn kclist_cliques(g: &Graph, k: usize) -> u64 {
    let n = g.num_vertices();
    let mut dag: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in 0..n as u32 {
        let dv = g.degree(VertexId(v));
        for &u in g.neighbors(VertexId(v)) {
            if (dv, v) < (g.degree(VertexId(u)), u) {
                dag[v as usize].push(u);
            }
        }
    }
    fn rec(dag: &[Vec<u32>], cands: &[u32], depth: usize, count: &mut u64) {
        if depth == 0 {
            *count += cands.len() as u64;
            return;
        }
        for &v in cands {
            let next: Vec<u32> = cands
                .iter()
                .copied()
                .filter(|&u| dag[v as usize].binary_search(&u).is_ok())
                .collect();
            if next.len() >= depth - 1 {
                rec(dag, &next, depth - 1, count);
            }
        }
    }
    if k == 0 {
        return 0;
    }
    if k == 1 {
        return n as u64;
    }
    let mut count = 0;
    for v in 0..n as u32 {
        rec(&dag, &dag[v as usize], k - 2, &mut count);
    }
    count
}

/// Neo4j-like triangle counting: node-iterator with sorted-adjacency
/// intersections (the Appendix C single-thread triangle baseline).
pub fn node_iterator_triangles(g: &Graph) -> u64 {
    let mut count = 0u64;
    let mut buf: Vec<u32> = Vec::new();
    for e in g.edges() {
        let (a, b) = g.edge_endpoints(e);
        count += g
            .intersect_neighbors(a, b, &mut buf)
            .checked_sub(0)
            .unwrap() as u64;
    }
    // Each triangle counted once per edge.
    count / 3
}

/// GraphFrames-like triangle counting [13]: relational self-joins that
/// materialize every wedge before closing it — the memory profile that
/// makes GraphFrames "often run out of memory" (Fig. 12/20a).
pub fn graphframes_triangles(g: &Graph, budget: Budget) -> Outcome<u64> {
    let mut tracker = BudgetTracker::start(budget);
    // Edge table with src < dst.
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|e| {
            let (a, b) = g.edge_endpoints(e);
            (a.raw(), b.raw())
        })
        .collect();
    // Join edges(a,b) x edges(b,c): materialize all wedges a<b<c.
    let mut by_src: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in &edges {
        by_src.entry(a).or_default().push(b);
    }
    let mut wedges: Vec<(u32, u32, u32)> = Vec::new();
    for &(a, b) in &edges {
        if let Some(cs) = by_src.get(&b) {
            for &c in cs {
                wedges.push((a, b, c));
            }
        }
        if wedges.len().is_multiple_of(4096) {
            let bytes = (wedges.capacity() * 12 + edges.len() * 8) as u64;
            if !tracker.track_state(bytes, wedges.len() as u64) {
                return tracker.finish_oom();
            }
            if tracker.timed_out() {
                return tracker.finish_timeout();
            }
        }
    }
    let bytes = (wedges.capacity() * 12 + edges.len() * 8) as u64;
    if !tracker.track_state(bytes, wedges.len() as u64) {
        return tracker.finish_oom();
    }
    // Close wedges with a hash probe.
    let edge_set: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
    let count = wedges
        .iter()
        .filter(|&&(a, _, c)| edge_set.contains(&(a.min(c), a.max(c))))
        .count() as u64;
    let stats = tracker.finish();
    Outcome::Ok(count, stats)
}

/// GraMi-like FSM [17]: single-thread pattern growth with exact MNI
/// evaluation (no early termination — exact supports).
pub fn grami_fsm(g: &Graph, min_support: u64, max_edges: usize) -> Vec<(CanonicalCode, u64)> {
    crate::pattern_growth::pattern_growth_fsm(g, min_support, max_edges, None)
}

/// Single-thread subgraph query matcher (the Fig. 18 q2/q3 baseline):
/// symmetry-broken backtracking, unlabeled topology matching.
pub fn query_single(g: &Graph, query: &Pattern) -> u64 {
    // Rebuild the query with all-zero labels so the label checks pass on
    // any single-label graph.
    let unl = Pattern::unlabeled(
        query.num_vertices(),
        &query
            .edges()
            .iter()
            .map(|&(u, v, _)| (u, v))
            .collect::<Vec<_>>(),
    );
    let plan = ExplorationPlan::new(&unl);
    let mut count = 0u64;
    crate::pattern_growth::match_pattern(g, &plan, &mut |_| {
        count += 1;
        true
    });
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_graph::builder::unlabeled_from_edges;
    use fractal_graph::gen;

    #[test]
    fn motifs_match_bfs_reference() {
        let g = gen::mico_like(120, 2, 3);
        let st = gtries_motifs(&g, 3);
        let bfs =
            crate::bfs_engine::motifs_bfs(&g, 3, &crate::bfs_engine::BfsConfig::new(2), false)
                .unwrap();
        assert_eq!(st, bfs);
    }

    #[test]
    fn clique_counters_agree() {
        for seed in 0..3u64 {
            let g = gen::erdos_renyi(40, 200, 1, seed);
            for k in 3..=5 {
                let a = gtries_cliques(&g, k);
                let b = kclist_cliques(&g, k);
                assert_eq!(a, b, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn triangles_on_known_graphs() {
        assert_eq!(node_iterator_triangles(&gen::complete(5)), 10);
        assert_eq!(node_iterator_triangles(&gen::cycle(6)), 0);
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(node_iterator_triangles(&g), 1);
        assert_eq!(graphframes_triangles(&g, Budget::unlimited()).unwrap(), 1);
        assert_eq!(
            graphframes_triangles(&gen::complete(5), Budget::unlimited()).unwrap(),
            10
        );
    }

    #[test]
    fn graphframes_oom_on_tight_budget() {
        let g = gen::orkut_like(300, 3);
        let tight = Budget::new(10_000, std::time::Duration::from_secs(60));
        assert_eq!(graphframes_triangles(&g, tight).status(), "OOM");
    }

    #[test]
    fn grami_matches_bfs_fsm() {
        let g = gen::patents_like(80, 3, 7);
        let a: std::collections::HashMap<_, _> = grami_fsm(&g, 10, 2).into_iter().collect();
        let b: std::collections::HashMap<_, _> =
            crate::bfs_engine::fsm_bfs(&g, 10, 2, &crate::bfs_engine::BfsConfig::new(2))
                .unwrap()
                .into_iter()
                .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn query_single_counts_squares() {
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        assert_eq!(query_single(&g, &Pattern::cycle(4)), 1);
        assert_eq!(query_single(&g, &Pattern::clique(3)), 2);
    }
}
