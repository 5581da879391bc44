//! Symmetry breaking for pattern-induced matching (Grochow–Kellis [24]).
//!
//! Pattern-induced extension (§3, Fig. 1) matches a user query pattern
//! directly. Without care, a pattern with non-trivial automorphisms is
//! matched once per automorphism. The fix from Grochow & Kellis: impose a
//! set of `match[a] < match[b]` order conditions on the matched graph
//! vertices such that exactly one embedding per automorphism class
//! satisfies them all.

use crate::autom::{orbit, stabilizer, StabilizerChain};
use crate::Pattern;

/// A set of `match[a] < match[b]` conditions over pattern vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryConditions {
    /// Pairs `(a, b)` requiring the graph vertex matched to pattern vertex
    /// `a` to be smaller than the one matched to `b`.
    pub less_than: Vec<(u8, u8)>,
}

impl SymmetryConditions {
    /// Derives the conditions for `p` by iteratively fixing the smallest
    /// vertex of a non-trivial orbit and descending into its stabilizer,
    /// read off the stabilizer chain without listing `Aut(p)`.
    pub fn for_pattern(p: &Pattern) -> Self {
        Self::for_chain(&StabilizerChain::of(p, &[]))
    }

    /// The conditions of a stabilizer chain: each base point below every
    /// other member of its orbit. Equal to [`for_group`](Self::for_group)
    /// over the group the chain describes.
    pub fn for_chain(chain: &StabilizerChain) -> Self {
        let less_than = chain
            .base
            .iter()
            .flat_map(|(v, orbit)| orbit[1..].iter().map(move |&u| (*v, u)))
            .collect();
        SymmetryConditions { less_than }
    }

    /// Derives conditions for an explicit permutation group over `n`
    /// vertices (the Grochow–Kellis loop is valid for any subgroup, not
    /// just the full automorphism group): exactly one member of each
    /// group-orbit of injective assignments satisfies them. The reference
    /// the stabilizer chain is tested against; with the *stabilizer* of a
    /// rooted pattern's root, the conditions never constrain the root.
    pub fn for_group(n: usize, group: Vec<Vec<u8>>) -> Self {
        let mut group = group;
        let mut less_than = Vec::new();
        while group.len() > 1 {
            // Smallest vertex with a non-trivial orbit.
            let mut fixed = None;
            for v in 0..n {
                let o = orbit(&group, v);
                if o.len() > 1 {
                    fixed = Some((v, o));
                    break;
                }
            }
            let (v, o) = fixed.expect("non-trivial group must move some vertex");
            for &u in &o {
                if u as usize != v {
                    less_than.push((v as u8, u));
                }
            }
            group = stabilizer(&group, v);
        }
        SymmetryConditions { less_than }
    }

    /// No conditions (used to measure redundancy without symmetry breaking).
    pub fn none() -> Self {
        SymmetryConditions {
            less_than: Vec::new(),
        }
    }

    /// Whether a complete assignment `m` (graph vertex matched to each
    /// pattern vertex) satisfies every condition.
    pub fn check(&self, m: &[u32]) -> bool {
        self.less_than
            .iter()
            .all(|&(a, b)| m[a as usize] < m[b as usize])
    }

    /// Number of conditions.
    pub fn len(&self) -> usize {
        self.less_than.len()
    }

    /// Whether there are no conditions.
    pub fn is_empty(&self) -> bool {
        self.less_than.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autom::automorphisms;

    /// Brute-force check: over all injective assignments of `n` pattern
    /// vertices onto `0..n + 2` graph ids, every orbit under `group`
    /// (assignments that are images of each other) has exactly one member
    /// satisfying `conds`.
    fn assert_one_per_orbit(conds: &SymmetryConditions, n: usize, group: &[Vec<u8>]) {
        fn rec(pos: usize, universe: usize, assignment: &mut Vec<u32>, all: &mut Vec<Vec<u32>>) {
            if pos == assignment.len() {
                all.push(assignment.clone());
                return;
            }
            for g in 0..universe as u32 {
                if !assignment[..pos].contains(&g) {
                    assignment[pos] = g;
                    rec(pos + 1, universe, assignment, all);
                }
            }
        }
        let mut all = Vec::new();
        rec(0, n + 2, &mut vec![u32::MAX; n], &mut all);
        // m ~ m' iff there is a σ in the group with m'[v] = m[σ(v)] for all v.
        let mut seen = std::collections::HashSet::new();
        for m in &all {
            if seen.contains(m) {
                continue;
            }
            let class: std::collections::BTreeSet<Vec<u32>> = group
                .iter()
                .map(|a| (0..n).map(|v| m[a[v] as usize]).collect())
                .collect();
            let satisfying = class.iter().filter(|mm| conds.check(mm)).count();
            assert_eq!(satisfying, 1, "class of {m:?}: {satisfying} satisfy");
            seen.extend(class);
        }
    }

    fn assert_one_per_class(p: &Pattern) {
        let conds = SymmetryConditions::for_pattern(p);
        assert_one_per_orbit(&conds, p.num_vertices(), &automorphisms(p));
    }

    #[test]
    fn triangle_conditions_total_order() {
        let c = SymmetryConditions::for_pattern(&Pattern::clique(3));
        assert_eq!(c.len(), 3);
        assert!(c.check(&[1, 5, 9]));
        assert!(!c.check(&[5, 1, 9]));
    }

    #[test]
    fn asymmetric_pattern_no_conditions() {
        let p = Pattern::new(vec![0, 1, 2], vec![(0, 1, 0), (1, 2, 0)]);
        assert!(SymmetryConditions::for_pattern(&p).is_empty());
    }

    #[test]
    fn exactly_one_representative_clique() {
        assert_one_per_class(&Pattern::clique(3));
        assert_one_per_class(&Pattern::clique(4));
    }

    #[test]
    fn exactly_one_representative_path_star_cycle() {
        assert_one_per_class(&Pattern::path(3));
        assert_one_per_class(&Pattern::path(4));
        assert_one_per_class(&Pattern::star(3));
        assert_one_per_class(&Pattern::cycle(4));
        assert_one_per_class(&Pattern::cycle(5));
    }

    #[test]
    fn exactly_one_representative_labeled() {
        let p = Pattern::new(vec![1, 0, 0], vec![(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
        assert_one_per_class(&p);
        // Square with alternating labels: automorphisms are label-preserving.
        let q = Pattern::new(
            vec![0, 1, 0, 1],
            vec![(0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)],
        );
        assert_one_per_class(&q);
    }

    #[test]
    fn subgroup_conditions_fix_one_per_stabilizer_orbit() {
        use crate::autom::stabilizer;
        // Root stabilizers: the subgroup the rooted planner breaks by.
        for (p, root) in [
            (Pattern::clique(4), 0usize),
            (Pattern::star(3), 0),
            (Pattern::cycle(4), 1),
            (Pattern::path(4), 1),
        ] {
            let stab = stabilizer(&automorphisms(&p), root);
            let conds = SymmetryConditions::for_group(p.num_vertices(), stab.clone());
            // The root is fixed by the whole subgroup, so no condition may
            // mention it.
            for &(a, b) in &conds.less_than {
                assert_ne!(a as usize, root, "{p} root {root}");
                assert_ne!(b as usize, root, "{p} root {root}");
            }
            assert_one_per_orbit(&conds, p.num_vertices(), &stab);
        }
    }

    #[test]
    fn exactly_one_representative_diamond() {
        // K4 minus one edge ("diamond").
        let p = Pattern::unlabeled(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        assert_one_per_class(&p);
    }
}
