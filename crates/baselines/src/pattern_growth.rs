//! Pattern-growth utilities shared by the FSM baselines (ScaleMine-like,
//! GraMi-like): candidate generation by single-edge pattern extension and
//! exact minimum-image (MNI) support evaluation via pattern matching.

use fractal_graph::{Graph, VertexId};
use fractal_pattern::canon::{canonical_form, CodeCache};
use fractal_pattern::{CanonicalCode, ExplorationPlan, Pattern};
use std::collections::HashSet;

/// All distinct single-edge patterns present in `g`:
/// `(vlabel_a — elabel — vlabel_b)`.
pub fn single_edge_patterns(g: &Graph) -> Vec<CanonicalCode> {
    let mut cache = CodeCache::new();
    let mut out: HashSet<CanonicalCode> = HashSet::new();
    for e in g.edges() {
        let (a, b) = g.edge_endpoints(e);
        let p = Pattern::new(
            vec![g.vertex_label(a).raw(), g.vertex_label(b).raw()],
            vec![(0, 1, g.edge_label(e).raw())],
        );
        out.insert(cache.canonical_form(&p).code.clone());
    }
    out.into_iter().collect()
}

/// All canonically-distinct `(k+1)`-edge extensions of `p`: an edge
/// between two existing non-adjacent vertices, or an edge to a fresh
/// vertex, over the given label universes.
pub fn children(p: &Pattern, vertex_labels: &[u32], edge_labels: &[u32]) -> Vec<Pattern> {
    let n = p.num_vertices();
    let mut cache = CodeCache::new();
    let mut seen: HashSet<CanonicalCode> = HashSet::new();
    let mut out = Vec::new();
    let mut push = |cand: Pattern, seen: &mut HashSet<CanonicalCode>, out: &mut Vec<Pattern>| {
        let code = cache.canonical_form(&cand).code.clone();
        if seen.insert(code) {
            out.push(cand);
        }
    };
    // Close an open pair.
    for u in 0..n {
        for v in (u + 1)..n {
            if !p.adjacent(u, v) {
                for &el in edge_labels {
                    let mut edges = p.edges().to_vec();
                    edges.push((u as u8, v as u8, el));
                    let labels = (0..n).map(|w| p.vertex_label(w)).collect();
                    push(Pattern::new(labels, edges), &mut seen, &mut out);
                }
            }
        }
    }
    // Grow a fresh vertex.
    for u in 0..n {
        for &vl in vertex_labels {
            for &el in edge_labels {
                let mut edges = p.edges().to_vec();
                edges.push((u as u8, n as u8, el));
                let mut labels: Vec<u32> = (0..n).map(|w| p.vertex_label(w)).collect();
                labels.push(vl);
                push(Pattern::new(labels, edges), &mut seen, &mut out);
            }
        }
    }
    out
}

/// Label universes of a graph: distinct vertex labels and edge labels.
pub fn label_universe(g: &Graph) -> (Vec<u32>, Vec<u32>) {
    let mut vl: HashSet<u32> = HashSet::new();
    let mut el: HashSet<u32> = HashSet::new();
    for v in g.vertices() {
        vl.insert(g.vertex_label(v).raw());
    }
    for e in g.edges() {
        el.insert(g.edge_label(e).raw());
    }
    let mut vl: Vec<u32> = vl.into_iter().collect();
    let mut el: Vec<u32> = el.into_iter().collect();
    vl.sort_unstable();
    el.sort_unstable();
    (vl, el)
}

/// Single-thread pattern matcher: invokes `cb` with each complete match
/// (graph vertex per plan position); `cb` returning `false` aborts the
/// search. Labels are always matched. Returns whether the search ran to
/// completion (`false` = aborted).
pub fn match_pattern(
    g: &Graph,
    plan: &ExplorationPlan,
    cb: &mut dyn FnMut(&[u32]) -> bool,
) -> bool {
    let mut matched: Vec<u32> = Vec::with_capacity(plan.len());
    fn rec(
        g: &Graph,
        plan: &ExplorationPlan,
        matched: &mut Vec<u32>,
        cb: &mut dyn FnMut(&[u32]) -> bool,
    ) -> bool {
        let pos = matched.len();
        if pos == plan.len() {
            return cb(matched);
        }
        if pos == 0 {
            for v in 0..g.num_vertices() as u32 {
                if g.vertex_label(VertexId(v)).raw() != plan.label_at(0) {
                    continue;
                }
                matched.push(v);
                if !rec(g, plan, matched, cb) {
                    return false;
                }
                matched.pop();
            }
            return true;
        }
        let back = plan.back_edges(pos);
        let anchor = back
            .iter()
            .map(|&(p, _)| matched[p as usize])
            .min_by_key(|&v| g.degree(VertexId(v)))
            .unwrap();
        'cand: for &cand in g.neighbors(VertexId(anchor)) {
            if matched.contains(&cand) {
                continue;
            }
            if g.vertex_label(VertexId(cand)).raw() != plan.label_at(pos) {
                continue;
            }
            for &(epos, el) in back {
                match g.edge_between(VertexId(matched[epos as usize]), VertexId(cand)) {
                    Some(e) if g.edge_label(e).raw() == el => {}
                    _ => continue 'cand,
                }
            }
            for q in plan.must_be_less_than(pos) {
                if cand >= matched[q as usize] {
                    continue 'cand;
                }
            }
            for q in plan.must_be_greater_than(pos) {
                if cand <= matched[q as usize] {
                    continue 'cand;
                }
            }
            matched.push(cand);
            if !rec(g, plan, matched, cb) {
                return false;
            }
            matched.pop();
        }
        true
    }
    rec(g, plan, &mut matched, cb)
}

/// Exact (or capped) minimum-image support of `pattern` in `g`.
///
/// With `cap = Some(t)`, the search stops as soon as every orbit domain
/// reaches `t` and reports `t` — the ScaleMine-style early termination
/// that makes reported counts approximate while keeping the frequent /
/// infrequent decision exact.
pub fn mni_support(g: &Graph, pattern: &Pattern, cap: Option<u64>) -> u64 {
    let plan = ExplorationPlan::new(pattern);
    let form = canonical_form(pattern);
    let auts = fractal_pattern::autom::automorphisms(&form.code.to_pattern());
    let reps: Vec<u8> = (0..pattern.num_vertices())
        .map(|v| fractal_pattern::autom::orbit(&auts, v)[0])
        .collect();
    let mut domains: Vec<HashSet<u32>> = vec![HashSet::new(); pattern.num_vertices()];
    let completed = match_pattern(g, &plan, &mut |m| {
        // m is ordered by plan position; map to pattern vertices, then to
        // canonical positions, then fold into orbit representatives.
        for (pos, &mv) in m.iter().enumerate() {
            let pattern_vertex = plan.vertex_at(pos) as usize;
            let canon_pos = form.perm[pattern_vertex] as usize;
            domains[reps[canon_pos] as usize].insert(mv);
        }
        if let Some(t) = cap {
            let done = domains
                .iter()
                .filter(|d| !d.is_empty())
                .all(|d| d.len() as u64 >= t)
                && domains.iter().any(|d| !d.is_empty());
            !done
        } else {
            true
        }
    });
    let sup = domains
        .iter()
        .filter(|d| !d.is_empty())
        .map(|d| d.len() as u64)
        .min()
        .unwrap_or(0);
    if !completed {
        cap.expect("aborted only under a cap").min(sup)
    } else {
        sup
    }
}

/// The full exact pattern-growth FSM (the GraMi-like baseline): BFS over
/// the pattern lattice with exact MNI evaluation per candidate.
pub fn pattern_growth_fsm(
    g: &Graph,
    min_support: u64,
    max_edges: usize,
    cap: Option<u64>,
) -> Vec<(CanonicalCode, u64)> {
    let (vl, el) = label_universe(g);
    let mut cache = CodeCache::new();
    let mut out: Vec<(CanonicalCode, u64)> = Vec::new();
    let mut frontier: Vec<Pattern> = single_edge_patterns(g)
        .into_iter()
        .map(|c| c.to_pattern())
        .collect();
    for _size in 1..=max_edges {
        let mut next: Vec<Pattern> = Vec::new();
        let mut seen: HashSet<CanonicalCode> = HashSet::new();
        for p in &frontier {
            let sup = mni_support(g, p, cap);
            if sup >= min_support {
                out.push((cache.canonical_form(p).code.clone(), sup));
                for child in children(p, &vl, &el) {
                    let code = cache.canonical_form(&child).code.clone();
                    if seen.insert(code) {
                        next.push(child);
                    }
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_graph::builder::graph_from_edges;
    use fractal_graph::gen;

    #[test]
    fn single_edge_patterns_dedup() {
        let g = graph_from_edges(&[0, 1, 0, 1], &[(0, 1, 0), (2, 3, 0), (0, 3, 1)]);
        let pats = single_edge_patterns(&g);
        // (0)-0-(1) twice -> once; (0)-1-(1) once. Total 2.
        assert_eq!(pats.len(), 2);
    }

    #[test]
    fn children_counts() {
        // Single unlabeled edge: close nothing (complete), grow 2
        // (symmetric ends collapse to one canonical form... they do not:
        // growing from either end is isomorphic -> 1 pattern).
        let p = Pattern::unlabeled(2, &[(0, 1)]);
        let kids = children(&p, &[0], &[0]);
        assert_eq!(kids.len(), 1); // the 3-vertex path
        let path3 = &kids[0];
        let kids2 = children(path3, &[0], &[0]);
        // From a path of 2 edges: close the triangle, grow at an end
        // (4-path), grow at the middle (star). All distinct -> 3.
        assert_eq!(kids2.len(), 3);
    }

    #[test]
    fn matcher_counts_triangles_once() {
        let g = gen::complete(4);
        let plan = ExplorationPlan::new(&Pattern::clique(3));
        let mut count = 0;
        match_pattern(&g, &plan, &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 4); // C(4,3)
    }

    #[test]
    fn mni_support_on_complete_graph() {
        let g = gen::complete(4);
        // Single edge: every vertex appears at both positions -> support 4.
        let edge = Pattern::unlabeled(2, &[(0, 1)]);
        assert_eq!(mni_support(&g, &edge, None), 4);
        // Triangle: support 4 as well.
        assert_eq!(mni_support(&g, &Pattern::clique(3), None), 4);
    }

    #[test]
    fn capped_support_stops_early() {
        let g = gen::complete(8);
        let edge = Pattern::unlabeled(2, &[(0, 1)]);
        assert_eq!(mni_support(&g, &edge, Some(3)), 3);
        assert_eq!(mni_support(&g, &edge, None), 8);
    }

    #[test]
    fn fsm_on_k4_matches_expectation() {
        let g = gen::complete(4);
        let freq = pattern_growth_fsm(&g, 4, 2, None);
        // Size 1: the edge (support 4). Size 2: the 2-path (support 4).
        assert_eq!(freq.len(), 2);
        assert!(freq.iter().all(|(_, s)| *s == 4));
    }
}
