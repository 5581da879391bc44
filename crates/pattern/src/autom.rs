//! Automorphisms of patterns, found by backtracking over candidate images
//! within the refinement cells of [`crate::canon::refine_colors`], checking
//! adjacency and edge labels against the assigned prefix. The stabilizer
//! chain ([`StabilizerChain`]) never lists the group: each orbit member is
//! one search that stops at the first automorphism it finds, so
//! `clique(32)` costs 496 short searches, not `32!` permutations. The
//! explicit group ([`automorphisms`]) stays as the reference the tests and
//! the baselines compare against.

use crate::canon::refine_colors;
use crate::Pattern;

/// All automorphisms of `p`, each as `perm[v] = image of v`. The identity
/// is always included; the result is never empty.
pub fn automorphisms(p: &Pattern) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    search(p, &refine_colors(p), &[], &mut |perm| {
        out.push(perm.to_vec());
        false
    });
    debug_assert!(out
        .iter()
        .any(|a| a.iter().enumerate().all(|(i, &v)| i == v as usize)));
    out
}

/// Backtracks over the automorphisms of `p` that map every pin `from → to`,
/// handing each to `found` (as `perm[v] = image of v`) until it returns
/// `true`, and returns whether it did. Pinned vertices go first, so a pin
/// that cannot hold fails before any free vertex is tried; free vertices
/// and their images go in ascending order.
fn search(
    p: &Pattern,
    colors: &[u32],
    pins: &[(u8, u8)],
    found: &mut dyn FnMut(&[u8]) -> bool,
) -> bool {
    let n = p.num_vertices();
    let mut order: Vec<u8> = pins.iter().map(|&(from, _)| from).collect();
    order.extend((0..n as u8).filter(|v| !pins.iter().any(|(from, _)| from == v)));
    Search {
        p,
        colors,
        order,
        pins,
        perm: vec![u8::MAX; n],
        used: 0,
    }
    .step(0, found)
}

/// The state of one [`search`].
struct Search<'a> {
    p: &'a Pattern,
    colors: &'a [u32],
    /// Vertices in assignment order: the pinned ones first.
    order: Vec<u8>,
    pins: &'a [(u8, u8)],
    /// `perm[v]` = image of `v`, `u8::MAX` while unassigned.
    perm: Vec<u8>,
    /// Bit `i`: image `i` is taken.
    used: u32,
}

impl Search<'_> {
    fn step(&mut self, depth: usize, found: &mut dyn FnMut(&[u8]) -> bool) -> bool {
        let Some(&v) = self.order.get(depth) else {
            return found(&self.perm);
        };
        let images = match self.pins.get(depth) {
            Some(&(_, to)) => to..to + 1,
            None => 0..self.perm.len() as u8,
        };
        for img in images {
            if self.used >> img & 1 == 0 && self.fits(depth, v as usize, img as usize) {
                self.perm[v as usize] = img;
                self.used |= 1 << img;
                let stop = self.step(depth + 1, found);
                self.used &= !(1 << img);
                self.perm[v as usize] = u8::MAX;
                if stop {
                    return true;
                }
            }
        }
        false
    }

    /// Whether `v → img` agrees with the vertices assigned before `depth`:
    /// same refinement cell and label, and every assigned vertex is adjacent
    /// to `v` exactly when its image is adjacent to `img`, with the same
    /// edge label.
    fn fits(&self, depth: usize, v: usize, img: usize) -> bool {
        let p = self.p;
        self.colors[img] == self.colors[v]
            && p.vertex_label(img) == p.vertex_label(v)
            && self.order[..depth].iter().all(|&u| {
                let (u, pu) = (u as usize, self.perm[u as usize] as usize);
                let adj = p.adjacent(u, v);
                adj == p.adjacent(pu, img) && (!adj || p.edge_label(u, v) == p.edge_label(pu, img))
            })
    }
}

/// The Grochow–Kellis stabilizer chain of `Aut(p)` below a set of fixed
/// vertices. In ascending order, each `v` whose orbit under the pointwise
/// stabilizer of the fixed vertices and the earlier base points is
/// non-trivial becomes a base point. `u` is in that orbit iff some
/// automorphism fixes those vertices and maps `v → u`; only `u > v` can be
/// (a smaller member would have been a base point already).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizerChain {
    /// `(base point, its orbit)`, by ascending base point; each orbit is
    /// sorted and starts with its base point.
    pub base: Vec<(u8, Vec<u8>)>,
}

impl StabilizerChain {
    /// The chain of `p`'s automorphisms that fix every vertex of `fixed`.
    pub fn of(p: &Pattern, fixed: &[u8]) -> Self {
        let n = p.num_vertices() as u8;
        let colors = refine_colors(p);
        let mut pins: Vec<(u8, u8)> = fixed.iter().map(|&f| (f, f)).collect();
        let mut base = Vec::new();
        for v in 0..n {
            if fixed.contains(&v) {
                continue;
            }
            let mut orbit = vec![v];
            for u in v + 1..n {
                if colors[u as usize] != colors[v as usize] || fixed.contains(&u) {
                    continue;
                }
                pins.push((v, u));
                if search(p, &colors, &pins, &mut |_| true) {
                    orbit.push(u);
                }
                pins.pop();
            }
            if orbit.len() > 1 {
                base.push((v, orbit));
                pins.push((v, v));
            }
        }
        StabilizerChain { base }
    }

    /// The order of the stabilizer of the fixed vertices: the product of
    /// the chain's orbit sizes (orbit–stabilizer theorem, level by level).
    pub fn order(&self) -> u64 {
        self.base
            .iter()
            .map(|(_, orbit)| orbit.len() as u64)
            .product()
    }
}

/// `reps[v]` = the smallest vertex in `v`'s orbit under `Aut(p)`, one
/// search per smaller representative of `v`'s color.
pub fn orbit_representatives(p: &Pattern) -> Vec<u8> {
    let colors = refine_colors(p);
    let mut reps: Vec<u8> = Vec::with_capacity(p.num_vertices());
    for v in 0..p.num_vertices() as u8 {
        let rep = (0..v)
            .filter(|&u| reps[u as usize] == u && colors[u as usize] == colors[v as usize])
            .find(|&u| search(p, &colors, &[(v, u)], &mut |_| true))
            .unwrap_or(v);
        reps.push(rep);
    }
    reps
}

/// The order of the automorphism group of `p`: the product of its
/// stabilizer chain's orbit sizes. Disconnected patterns (the decomposition
/// planner's sub-patterns) need no special case: the chain's searches see
/// the whole pattern, component swaps included.
pub fn automorphism_count(p: &Pattern) -> u64 {
    StabilizerChain::of(p, &[]).order()
}

/// The orbit of vertex `v` under the group `auts`: the sorted set of images
/// of `v`.
pub fn orbit(auts: &[Vec<u8>], v: usize) -> Vec<u8> {
    let mut o: Vec<u8> = auts.iter().map(|a| a[v]).collect();
    o.sort_unstable();
    o.dedup();
    o
}

/// The stabilizer subgroup fixing vertex `v`.
pub fn stabilizer(auts: &[Vec<u8>], v: usize) -> Vec<Vec<u8>> {
    auts.iter()
        .filter(|a| a[v] as usize == v)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_has_six_automorphisms() {
        assert_eq!(automorphisms(&Pattern::clique(3)).len(), 6);
    }

    #[test]
    fn clique_group_sizes() {
        assert_eq!(automorphisms(&Pattern::clique(4)).len(), 24);
        assert_eq!(automorphisms(&Pattern::clique(5)).len(), 120);
    }

    #[test]
    fn path_has_reversal_only() {
        let auts = automorphisms(&Pattern::path(4));
        assert_eq!(auts.len(), 2);
        assert!(auts.contains(&vec![3, 2, 1, 0]));
    }

    #[test]
    fn cycle_group_is_dihedral() {
        // |Aut(C_5)| = 2 * 5.
        assert_eq!(automorphisms(&Pattern::cycle(5)).len(), 10);
    }

    #[test]
    fn star_group_permutes_leaves() {
        // Star with 4 leaves: 4! leaf permutations.
        assert_eq!(automorphisms(&Pattern::star(4)).len(), 24);
    }

    #[test]
    fn labels_restrict_group() {
        // Triangle with one distinct vertex label: only the swap of the two
        // like-labeled vertices survives (plus identity).
        let p = Pattern::new(vec![1, 0, 0], vec![(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
        assert_eq!(automorphisms(&p).len(), 2);
        // Distinct edge label breaks symmetry too.
        let q = Pattern::new(vec![0, 0, 0], vec![(0, 1, 9), (1, 2, 0), (0, 2, 0)]);
        assert_eq!(automorphisms(&q).len(), 2);
    }

    #[test]
    fn orbits_and_stabilizers() {
        let auts = automorphisms(&Pattern::clique(3));
        assert_eq!(orbit(&auts, 0), vec![0, 1, 2]);
        let stab = stabilizer(&auts, 0);
        assert_eq!(stab.len(), 2);
        assert_eq!(orbit(&stab, 1), vec![1, 2]);
    }

    #[test]
    fn asymmetric_pattern_trivial_group() {
        // A path with distinct labels has only the identity.
        let p = Pattern::new(vec![0, 1, 2], vec![(0, 1, 0), (1, 2, 0)]);
        assert_eq!(automorphisms(&p).len(), 1);
    }

    #[test]
    fn disconnected_group_is_component_product() {
        // Two disjoint edges: each edge flips (2·2) and the edges swap (2!)
        // -> 8. The enumerated group and the chain's order must agree.
        let two_edges = Pattern::unlabeled(4, &[(0, 1), (2, 3)]);
        assert_eq!(automorphisms(&two_edges).len(), 8);
        assert_eq!(automorphism_count(&two_edges), 8);

        // Triangle plus isolated vertex: 6·1.
        let k3_k1 = Pattern::unlabeled(4, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(automorphism_count(&k3_k1), 6);
        assert_eq!(
            automorphisms(&k3_k1).len() as u64,
            automorphism_count(&k3_k1)
        );

        // Three isolated vertices: S_3.
        let bare = Pattern::unlabeled(3, &[]);
        assert_eq!(automorphism_count(&bare), 6);

        // Edge + path3: non-isomorphic components, no cross swap: 2·2.
        let mixed = Pattern::unlabeled(5, &[(0, 1), (2, 3), (3, 4)]);
        assert_eq!(automorphism_count(&mixed), 4);
        assert_eq!(
            automorphisms(&mixed).len() as u64,
            automorphism_count(&mixed)
        );

        // Labels block the component swap: two edges, one labeled.
        let labeled = Pattern::new(vec![1, 1, 0, 0], vec![(0, 1, 0), (2, 3, 0)]);
        assert_eq!(automorphism_count(&labeled), 4);
        assert_eq!(
            automorphisms(&labeled).len() as u64,
            automorphism_count(&labeled)
        );
    }

    #[test]
    fn chain_order_matches_enumeration_on_random_patterns() {
        // Cross-validate the chain's order against the enumerated group on
        // every 5-vertex pattern over a fixed edge menu (includes many
        // disconnected shapes).
        let pairs = [(0u8, 1u8), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)];
        for mask in 0u32..64 {
            let edges: Vec<(u8, u8)> = pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &e)| e)
                .collect();
            let p = Pattern::unlabeled(5, &edges);
            assert_eq!(
                automorphisms(&p).len() as u64,
                automorphism_count(&p),
                "mask {mask:#x}: {p}"
            );
        }
    }

    /// For every connected shape of up to six vertices and every fixed
    /// root (and none): the chain's conditions, order and orbit
    /// representatives, and `automorphism_count`, are what the explicit
    /// group gives.
    #[test]
    fn stabilizer_chain_equals_the_explicit_group() {
        use crate::symmetry::SymmetryConditions;
        for p in (1..=6).flat_map(crate::decompose::connected_shapes) {
            let n = p.num_vertices();
            let auts = automorphisms(&p);
            let chain = StabilizerChain::of(&p, &[]);
            assert_eq!(chain.order(), auts.len() as u64, "{p}");
            assert_eq!(automorphism_count(&p), auts.len() as u64, "{p}");
            assert_eq!(
                SymmetryConditions::for_chain(&chain),
                SymmetryConditions::for_group(n, auts.clone()),
                "{p}"
            );
            assert_eq!(
                SymmetryConditions::for_pattern(&p),
                SymmetryConditions::for_chain(&chain)
            );
            let reps: Vec<u8> = (0..n).map(|v| orbit(&auts, v)[0]).collect();
            assert_eq!(orbit_representatives(&p), reps, "{p}");
            for root in 0..n as u8 {
                let stab = stabilizer(&auts, root as usize);
                let chain = StabilizerChain::of(&p, &[root]);
                assert_eq!(chain.order(), stab.len() as u64, "{p} root {root}");
                assert_eq!(
                    SymmetryConditions::for_chain(&chain),
                    SymmetryConditions::for_group(n, stab),
                    "{p} root {root}"
                );
            }
        }
    }

    /// `32!` automorphisms are never listed: the chain of `clique(32)` is
    /// 496 short searches.
    #[test]
    fn clique32_plan_builds_without_listing_its_group() {
        let start = std::time::Instant::now();
        let plan = crate::ExplorationPlan::new(&Pattern::clique(32));
        assert_eq!(plan.conditions().len(), 32 * 31 / 2);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn group_closure_property() {
        // Composition of any two automorphisms is an automorphism.
        let p = Pattern::cycle(4);
        let auts = automorphisms(&p);
        for a in &auts {
            for b in &auts {
                let comp: Vec<u8> = (0..4).map(|v| a[b[v] as usize]).collect();
                assert!(auts.contains(&comp));
            }
        }
    }
}
