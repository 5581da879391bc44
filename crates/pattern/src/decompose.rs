//! Pattern decomposition for the counting planner.
//!
//! The decomposed counting path (DwarvesGraph-style, see DESIGN.md §14)
//! counts a connected pattern `H` per *root* vertex: `emb_r(H)[v]` is the
//! number of injective embeddings mapping the root to graph vertex `v`. Two
//! identities make sub-pattern reuse possible:
//!
//! 1. **Vertex identification at a cut root.** If removing the root splits
//!    `H` into sides `H1`, `H2` (both keeping the root), then for every `v`
//!
//!    ```text
//!    emb_r(H1)[v] · emb_r(H2)[v] = Σ_μ emb_r(H_μ)[v]
//!    ```
//!
//!    summed over *all* partial injections `μ` from `H1`'s non-root vertices
//!    to `H2`'s (including the empty one, whose quotient is `H` itself). So
//!    `emb_r(H)[v]` is the product minus the non-empty overlap terms — each
//!    a strictly smaller connected rooted pattern ([`overlap_terms`]).
//!
//! 2. **Möbius inversion over edge-supersets.** Non-induced subgraph counts
//!    `N_sub` convert to induced motif counts `N_ind` by back-substitution
//!    over the same-size connected shapes, densest first ([`MotifBasis`]).
//!
//! Both identities are exact over the integers, so the decomposed counts are
//! bit-identical to the enumerator's (asserted by the parity oracle tests in
//! `crates/apps`).

use std::collections::BTreeMap;

use crate::canon::canonical_code;
use crate::{CanonicalCode, Pattern};

/// Sentinel added to the root's vertex label when computing a rooted
/// canonical key, forcing canonicalization to map roots to roots. Real
/// labels are far below this.
pub const ROOT_MARK: u32 = 1 << 30;

/// A connected pattern with a distinguished root vertex. The planner counts
/// rooted patterns per graph vertex and only ever decomposes *at the root*
/// (never re-rooting), which keeps every value additive over a root-word
/// partitioning of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedPattern {
    pub pattern: Pattern,
    pub root: u8,
}

impl RootedPattern {
    /// Roots `pattern` at `root`. Panics if the pattern is empty,
    /// disconnected, or the root is out of range — decomposition only ever
    /// produces connected rooted pieces.
    pub fn new(pattern: Pattern, root: u8) -> Self {
        assert!(
            (root as usize) < pattern.num_vertices(),
            "root out of range"
        );
        assert!(pattern.is_connected(), "rooted pattern must be connected");
        RootedPattern { pattern, root }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.pattern.num_vertices()
    }

    /// Never true (construction rejects empty patterns).
    pub fn is_empty(&self) -> bool {
        self.pattern.num_vertices() == 0
    }

    /// Canonical key of the rooted-isomorphism class: the root's label is
    /// offset by [`ROOT_MARK`] and the marked pattern canonicalized, so two
    /// rooted patterns share a key iff an isomorphism maps root to root.
    pub fn key(&self) -> CanonicalCode {
        let n = self.pattern.num_vertices();
        let mut labels: Vec<u32> = (0..n).map(|v| self.pattern.vertex_label(v)).collect();
        assert!(
            labels[self.root as usize] < ROOT_MARK,
            "vertex label too large"
        );
        labels[self.root as usize] += ROOT_MARK;
        canonical_code(&Pattern::new(labels, self.pattern.edges().to_vec()))
    }
}

impl std::fmt::Display for RootedPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.pattern, self.root)
    }
}

/// Connected components of `p` with vertex `root` removed, each as a sorted
/// vertex list (root excluded). More than one component means `root` is a
/// cut vertex and the pattern can be split there.
pub fn components_without(p: &Pattern, root: u8) -> Vec<Vec<u8>> {
    let n = p.num_vertices();
    let root_bit = 1u32 << root;
    let mut assigned = root_bit;
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
                next |= p.adj_mask(v) & !comp & !root_bit;
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

/// Splits `rp` at its root if the root is a cut vertex: side 1 is the root
/// plus the first component of `rp.pattern − root`, side 2 the root plus
/// everything else. Both sides are rooted at vertex 0 (the shared root) and
/// are connected by construction. Returns `None` when the root is not a cut
/// vertex (single component — the pattern must be counted directly).
pub fn split_at_root(rp: &RootedPattern) -> Option<(RootedPattern, RootedPattern)> {
    let comps = components_without(&rp.pattern, rp.root);
    if comps.len() < 2 {
        return None;
    }
    let mut side1 = vec![rp.root];
    side1.extend_from_slice(&comps[0]);
    let mut side2 = vec![rp.root];
    for c in &comps[1..] {
        side2.extend_from_slice(c);
    }
    let p1 = rp.pattern.induced_on(&side1);
    let p2 = rp.pattern.induced_on(&side2);
    Some((RootedPattern::new(p1, 0), RootedPattern::new(p2, 0)))
}

/// The correction terms of the vertex-identification identity: for each
/// *non-empty* partial injection `μ` from `h1`'s non-root vertices into
/// `h2`'s (label-respecting, edge-label-consistent), the quotient pattern
/// obtained by gluing `h1` onto `h2` along `root ∪ μ`. Terms are grouped by
/// rooted canonical key; the multiplicity counts how many `μ` produce each
/// class. Every quotient is connected, strictly smaller than
/// `h1.len() + h2.len() − 1`, and rooted at the shared root, so recursive
/// decomposition terminates.
pub fn overlap_terms(h1: &RootedPattern, h2: &RootedPattern) -> Vec<(RootedPattern, u64)> {
    assert_eq!(
        h1.pattern.vertex_label(h1.root as usize),
        h2.pattern.vertex_label(h2.root as usize),
        "sides must agree on the root label"
    );
    let others1: Vec<u8> = (0..h1.len() as u8).filter(|&v| v != h1.root).collect();
    let others2: Vec<u8> = (0..h2.len() as u8).filter(|&v| v != h2.root).collect();

    let mut terms: Vec<(RootedPattern, u64)> = Vec::new();
    let mut keys: Vec<CanonicalCode> = Vec::new();
    // mu[i] = Some(h2 vertex) if others1[i] is identified, else None.
    let mut mu: Vec<Option<u8>> = vec![None; others1.len()];
    let mut used2: u32 = 0;
    enumerate_injections(
        h1,
        h2,
        &others1,
        &others2,
        0,
        &mut mu,
        &mut used2,
        &mut |mu| {
            if mu.iter().all(|m| m.is_none()) {
                return; // μ = ∅ is the pattern itself, not a correction.
            }
            if let Some(q) = quotient(h1, h2, &others1, mu) {
                let key = q.key();
                match keys.iter().position(|k| *k == key) {
                    Some(i) => terms[i].1 += 1,
                    None => {
                        keys.push(key);
                        terms.push((q, 1));
                    }
                }
            }
        },
    );
    terms
}

#[allow(clippy::too_many_arguments)]
fn enumerate_injections(
    h1: &RootedPattern,
    h2: &RootedPattern,
    others1: &[u8],
    others2: &[u8],
    i: usize,
    mu: &mut Vec<Option<u8>>,
    used2: &mut u32,
    f: &mut impl FnMut(&[Option<u8>]),
) {
    if i == others1.len() {
        f(mu);
        return;
    }
    // Leave others1[i] unidentified.
    mu[i] = None;
    enumerate_injections(h1, h2, others1, others2, i + 1, mu, used2, f);
    // Or identify it with any unused, like-labeled h2 vertex.
    let l1 = h1.pattern.vertex_label(others1[i] as usize);
    for &w in others2 {
        if *used2 >> w & 1 == 1 || h2.pattern.vertex_label(w as usize) != l1 {
            continue;
        }
        mu[i] = Some(w);
        *used2 |= 1 << w;
        enumerate_injections(h1, h2, others1, others2, i + 1, mu, used2, f);
        *used2 &= !(1 << w);
    }
    mu[i] = None;
}

/// The quotient of gluing `h1` onto `h2` along the root and `μ`: `h2`'s
/// vertex ids are kept (root included), unidentified `h1` vertices are
/// appended. Parallel edges collapse; `None` if edge labels conflict on a
/// collapsed pair (such overlaps admit no embedding in a simple labeled
/// graph).
fn quotient(
    h1: &RootedPattern,
    h2: &RootedPattern,
    others1: &[u8],
    mu: &[Option<u8>],
) -> Option<RootedPattern> {
    let n2 = h2.len();
    // map1[v] = quotient id of h1 vertex v.
    let mut map1 = vec![u8::MAX; h1.len()];
    map1[h1.root as usize] = h2.root;
    let mut labels: Vec<u32> = (0..n2).map(|v| h2.pattern.vertex_label(v)).collect();
    let mut next = n2 as u8;
    for (i, &v) in others1.iter().enumerate() {
        match mu[i] {
            Some(w) => map1[v as usize] = w,
            None => {
                map1[v as usize] = next;
                labels.push(h1.pattern.vertex_label(v as usize));
                next += 1;
            }
        }
    }
    let mut edges: BTreeMap<(u8, u8), u32> = h2
        .pattern
        .edges()
        .iter()
        .map(|&(u, v, l)| ((u, v), l))
        .collect();
    for &(u, v, l) in h1.pattern.edges() {
        let (a, b) = (map1[u as usize], map1[v as usize]);
        debug_assert_ne!(a, b, "quotient map is injective on each side");
        let key = (a.min(b), a.max(b));
        match edges.get(&key) {
            Some(&l2) if l2 != l => return None, // edge-label conflict
            _ => {
                edges.insert(key, l);
            }
        }
    }
    let edge_list: Vec<(u8, u8, u32)> = edges.into_iter().map(|((u, v), l)| (u, v, l)).collect();
    Some(RootedPattern::new(Pattern::new(labels, edge_list), h2.root))
}

/// Every connected unlabeled shape on `k` vertices, one representative per
/// isomorphism class, ordered densest first (ties broken deterministically
/// by enumeration order). Counts are 1, 1, 2, 6, 21 for k = 1..5.
pub fn connected_shapes(k: usize) -> Vec<Pattern> {
    assert!((1..=8).contains(&k), "shape enumeration supports 1 ≤ k ≤ 8");
    let mut pairs: Vec<(u8, u8)> = Vec::new();
    for u in 0..k as u8 {
        for v in (u + 1)..k as u8 {
            pairs.push((u, v));
        }
    }
    let mut codes: Vec<CanonicalCode> = Vec::new();
    let mut shapes: Vec<Pattern> = Vec::new();
    for mask in 0u64..(1 << pairs.len()) {
        let edges: Vec<(u8, u8)> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        let p = Pattern::unlabeled(k, &edges);
        if !p.is_connected() {
            continue;
        }
        let code = canonical_code(&p);
        if !codes.contains(&code) {
            codes.push(code);
            shapes.push(p);
        }
    }
    shapes.sort_by_key(|p| std::cmp::Reverse(p.num_edges()));
    shapes
}

/// The Möbius basis converting non-induced subgraph counts into induced
/// motif counts over the connected `k`-vertex shapes.
///
/// With shapes ordered densest first, `N_sub(Q_i) = Σ_j a_ij · N_ind(Q_j)`
/// where `a_ij` counts the connected spanning subgraphs of `Q_j` isomorphic
/// to `Q_i` — a lower-triangular system with unit diagonal (`a_ij = 0`
/// unless `Q_j` has at least as many edges as `Q_i`), solved by forward
/// substitution in [`MotifBasis::induced_from_subgraph`].
#[derive(Debug, Clone)]
pub struct MotifBasis {
    k: usize,
    shapes: Vec<Pattern>,
    codes: Vec<CanonicalCode>,
    /// `coeffs[i][j]` = number of connected spanning subgraphs of
    /// `shapes[j]` isomorphic to `shapes[i]`.
    coeffs: Vec<Vec<u64>>,
}

impl MotifBasis {
    /// Builds the basis for `k`-vertex motifs by enumerating the connected
    /// spanning edge-subsets of every shape.
    pub fn new(k: usize) -> Self {
        let shapes = connected_shapes(k);
        let codes: Vec<CanonicalCode> = shapes.iter().map(canonical_code).collect();
        let m = shapes.len();
        let mut coeffs = vec![vec![0u64; m]; m];
        for (j, p) in shapes.iter().enumerate() {
            let edges = p.edges();
            for mask in 0u64..(1 << edges.len()) {
                let sub: Vec<(u8, u8, u32)> = edges
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e)
                    .collect();
                let q = Pattern::new(vec![0; k], sub);
                if !q.is_connected() {
                    continue;
                }
                let code = canonical_code(&q);
                let i = codes
                    .iter()
                    .position(|c| *c == code)
                    .expect("spanning connected subgraph must be a known shape");
                coeffs[i][j] += 1;
            }
        }
        for (i, row) in coeffs.iter().enumerate() {
            debug_assert_eq!(row[i], 1, "diagonal must be the identity subgraph");
            debug_assert!(
                row[i + 1..].iter().all(|&c| c == 0),
                "matrix must be lower-triangular densest-first"
            );
        }
        MotifBasis {
            k,
            shapes,
            codes,
            coeffs,
        }
    }

    /// Motif size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The shapes, densest first.
    pub fn shapes(&self) -> &[Pattern] {
        &self.shapes
    }

    /// Canonical codes aligned with [`MotifBasis::shapes`].
    pub fn codes(&self) -> &[CanonicalCode] {
        &self.codes
    }

    /// The Möbius coefficient `a(Q_i, Q_j)`.
    pub fn coeff(&self, i: usize, j: usize) -> u64 {
        self.coeffs[i][j]
    }

    /// Number of non-zero off-diagonal coefficients — the inclusion–
    /// exclusion terms the back-substitution applies.
    pub fn ie_terms(&self) -> u64 {
        let mut n = 0;
        for (i, row) in self.coeffs.iter().enumerate() {
            n += row[..i].iter().filter(|&&c| c != 0).count() as u64;
        }
        n
    }

    /// Converts non-induced subgraph counts (aligned with
    /// [`MotifBasis::shapes`]) into induced motif counts by forward
    /// substitution. Panics if the inputs are inconsistent (a negative
    /// intermediate means `subs` did not come from one graph).
    pub fn induced_from_subgraph(&self, subs: &[u64]) -> Vec<u64> {
        let m = self.shapes.len();
        assert_eq!(subs.len(), m);
        let mut ind = vec![0i128; m];
        for i in 0..m {
            let mut v = subs[i] as i128;
            for (coef, prior) in self.coeffs[i].iter().zip(&ind[..i]) {
                v -= *coef as i128 * *prior;
            }
            assert!(v >= 0, "inconsistent subgraph counts at shape {i}");
            ind[i] = v;
        }
        ind.into_iter().map(|v| v as u64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autom::automorphisms;

    fn edge_rooted() -> RootedPattern {
        RootedPattern::new(Pattern::path(2), 0)
    }

    #[test]
    fn connected_shape_counts() {
        assert_eq!(connected_shapes(1).len(), 1);
        assert_eq!(connected_shapes(2).len(), 1);
        assert_eq!(connected_shapes(3).len(), 2);
        assert_eq!(connected_shapes(4).len(), 6);
        assert_eq!(connected_shapes(5).len(), 21);
        // Densest first: the clique leads.
        for k in 2..=5 {
            assert!(connected_shapes(k)[0].is_clique());
        }
    }

    #[test]
    fn rooted_keys_distinguish_roots_and_ignore_labeling() {
        let end = RootedPattern::new(Pattern::path(3), 0);
        let center = RootedPattern::new(Pattern::path(3), 1);
        assert_ne!(end.key(), center.key());
        // Other end of the path: same rooted class as vertex 0.
        let other_end = RootedPattern::new(Pattern::path(3), 2);
        assert_eq!(end.key(), other_end.key());
        // Relabeled copy keeps the key.
        let relabeled = RootedPattern::new(Pattern::path(3).permuted(&[2, 0, 1]), 1);
        assert_eq!(end.key(), relabeled.key());
    }

    #[test]
    fn components_without_root() {
        // Path 0-1-2: removing the center splits it.
        let p = Pattern::path(3);
        assert_eq!(components_without(&p, 1), vec![vec![0], vec![2]]);
        assert_eq!(components_without(&p, 0), vec![vec![1, 2]]);
        // Triangle: no cut vertex.
        assert_eq!(components_without(&Pattern::clique(3), 0).len(), 1);
    }

    #[test]
    fn split_at_cut_root() {
        let center = RootedPattern::new(Pattern::path(3), 1);
        let (a, b) = split_at_root(&center).expect("center of a path is a cut vertex");
        assert_eq!(a.key(), edge_rooted().key());
        assert_eq!(b.key(), edge_rooted().key());
        // Star with 3 leaves splits into an edge and a 2-leaf star.
        let star = RootedPattern::new(Pattern::star(3), 0);
        let (a, b) = split_at_root(&star).unwrap();
        assert_eq!(a.len() + b.len(), star.len() + 1);
        assert_eq!(a.key(), edge_rooted().key());
        assert_eq!(b.key(), RootedPattern::new(Pattern::path(3), 1).key());
        // Non-cut roots do not split.
        assert!(split_at_root(&RootedPattern::new(Pattern::clique(3), 0)).is_none());
        assert!(split_at_root(&RootedPattern::new(Pattern::path(3), 0)).is_none());
    }

    #[test]
    fn overlap_terms_path3_at_center() {
        // emb_center(P3)[v] = d(v)² − d(v): one correction term, the edge.
        let terms = overlap_terms(&edge_rooted(), &edge_rooted());
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].1, 1);
        assert_eq!(terms[0].0.key(), edge_rooted().key());
    }

    #[test]
    fn overlap_terms_star3_at_center() {
        // emb(star3)[v] = d · d(d−1) − 2 · d(d−1) = d(d−1)(d−2):
        // both injections of the lone edge leaf collapse onto a star2 leaf.
        let star2 = RootedPattern::new(Pattern::unlabeled(3, &[(0, 1), (0, 2)]), 0);
        let terms = overlap_terms(&edge_rooted(), &star2);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].1, 2);
        assert_eq!(terms[0].0.key(), star2.key());
    }

    #[test]
    fn overlap_terms_two_paths_at_ends() {
        // Two P3s glued at an end: 6 non-empty injections over 5 rooted
        // classes (tadpole appears twice); every quotient is connected and
        // smaller than the 5-vertex join.
        let p3 = RootedPattern::new(Pattern::path(3), 0);
        let terms = overlap_terms(&p3, &p3);
        assert_eq!(terms.iter().map(|&(_, m)| m).sum::<u64>(), 6);
        assert_eq!(terms.len(), 5);
        for (q, _) in &terms {
            assert!(q.pattern.is_connected());
            assert!(q.len() < 5);
            assert_eq!(q.root, 0);
        }
        let mult: Vec<u64> = terms.iter().map(|&(_, m)| m).collect();
        assert_eq!(mult.iter().filter(|&&m| m == 2).count(), 1);
    }

    #[test]
    fn overlap_respects_vertex_labels() {
        // Leaves with different labels cannot be identified: no terms.
        let a = RootedPattern::new(Pattern::new(vec![5, 7], vec![(0, 1, 0)]), 0);
        let b = RootedPattern::new(Pattern::new(vec![5, 8], vec![(0, 1, 0)]), 0);
        assert!(overlap_terms(&a, &b).is_empty());
        // Same labels: the single collapse term comes back.
        let c = RootedPattern::new(Pattern::new(vec![5, 7], vec![(0, 1, 0)]), 0);
        assert_eq!(overlap_terms(&a, &c).len(), 1);
    }

    #[test]
    fn overlap_edge_label_conflicts_drop_terms() {
        // Identifying the leaves would merge edges labeled 1 and 2: no term.
        let a = RootedPattern::new(Pattern::new(vec![0, 0], vec![(0, 1, 1)]), 0);
        let b = RootedPattern::new(Pattern::new(vec![0, 0], vec![(0, 1, 2)]), 0);
        assert!(overlap_terms(&a, &b).is_empty());
    }

    #[test]
    fn mobius_matrix_k3() {
        // Shapes densest first: [K3, P3]; a(P3, K3) = 3 spanning paths.
        let basis = MotifBasis::new(3);
        assert_eq!(basis.shapes().len(), 2);
        assert!(basis.shapes()[0].is_clique());
        assert_eq!(basis.coeff(0, 0), 1);
        assert_eq!(basis.coeff(1, 1), 1);
        assert_eq!(basis.coeff(1, 0), 3);
        assert_eq!(basis.ie_terms(), 1);
        // N_ind(P3) = N_sub(P3) − 3·N_ind(K3).
        assert_eq!(basis.induced_from_subgraph(&[4, 20]), vec![4, 8]);
    }

    /// Deterministic pseudo-random adjacency matrix (LCG, no external rand).
    fn test_graph(n: usize, seed: u64, density_pct: u64) -> Vec<Vec<bool>> {
        let mut adj = vec![vec![false; n]; n];
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))) {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (s >> 33) % 100 < density_pct {
                adj[u][v] = true;
                adj[v][u] = true;
            }
        }
        adj
    }

    /// Brute-force induced motif counts: classify the induced subgraph of
    /// every k-subset.
    fn brute_induced(adj: &[Vec<bool>], basis: &MotifBasis) -> Vec<u64> {
        let n = adj.len();
        let k = basis.k();
        let mut counts = vec![0u64; basis.shapes().len()];
        let mut subset: Vec<usize> = Vec::new();
        fn rec(
            start: usize,
            n: usize,
            k: usize,
            subset: &mut Vec<usize>,
            adj: &[Vec<bool>],
            basis: &MotifBasis,
            counts: &mut [u64],
        ) {
            if subset.len() == k {
                let mut edges = Vec::new();
                for i in 0..k {
                    for j in (i + 1)..k {
                        if adj[subset[i]][subset[j]] {
                            edges.push((i as u8, j as u8));
                        }
                    }
                }
                let p = Pattern::unlabeled(k, &edges);
                if p.is_connected() {
                    let code = canonical_code(&p);
                    let i = basis.codes().iter().position(|c| *c == code).unwrap();
                    counts[i] += 1;
                }
                return;
            }
            for v in start..n {
                subset.push(v);
                rec(v + 1, n, k, subset, adj, basis, counts);
                subset.pop();
            }
        }
        rec(0, n, k, &mut subset, adj, basis, &mut counts);
        counts
    }

    /// Brute-force non-induced subgraph counts: injective homomorphisms
    /// divided by the automorphism group order.
    fn brute_subgraph(adj: &[Vec<bool>], basis: &MotifBasis) -> Vec<u64> {
        let n = adj.len();
        basis
            .shapes()
            .iter()
            .map(|shape| {
                let mut homs = 0u64;
                let mut map: Vec<usize> = Vec::new();
                let mut used = vec![false; n];
                fn rec(
                    shape: &Pattern,
                    adj: &[Vec<bool>],
                    map: &mut Vec<usize>,
                    used: &mut [bool],
                    homs: &mut u64,
                ) {
                    let pos = map.len();
                    if pos == shape.num_vertices() {
                        *homs += 1;
                        return;
                    }
                    for g in 0..adj.len() {
                        if used[g] {
                            continue;
                        }
                        let ok = (0..pos).all(|u| !shape.adjacent(u, pos) || adj[map[u]][g]);
                        if ok {
                            used[g] = true;
                            map.push(g);
                            rec(shape, adj, map, used, homs);
                            map.pop();
                            used[g] = false;
                        }
                    }
                }
                rec(shape, adj, &mut map, &mut used, &mut homs);
                let aut = automorphisms(shape).len() as u64;
                assert_eq!(homs % aut, 0, "homs divisible by |Aut|");
                homs / aut
            })
            .collect()
    }

    #[test]
    fn mobius_inversion_matches_brute_force() {
        // Independent cross-check of the whole matrix: on pseudo-random
        // graphs, forward substitution over brute-force N_sub must equal
        // brute-force N_ind for k = 3 and 4.
        for k in [3usize, 4] {
            let basis = MotifBasis::new(k);
            for (seed, density) in [(1u64, 55), (2, 35), (7, 75)] {
                let adj = test_graph(8, seed, density);
                let subs = brute_subgraph(&adj, &basis);
                let inds = brute_induced(&adj, &basis);
                assert_eq!(
                    basis.induced_from_subgraph(&subs),
                    inds,
                    "k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn mobius_inversion_matches_brute_force_k5() {
        let basis = MotifBasis::new(5);
        assert_eq!(basis.shapes().len(), 21);
        let adj = test_graph(9, 3, 50);
        let subs = brute_subgraph(&adj, &basis);
        let inds = brute_induced(&adj, &basis);
        assert_eq!(basis.induced_from_subgraph(&subs), inds);
    }
}
