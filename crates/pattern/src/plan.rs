//! Matching orders for pattern-induced extension.
//!
//! An [`ExplorationPlan`] fixes the order in which the vertices of a query
//! pattern are matched against the input graph. The order is *connected*
//! (every vertex after the first has at least one earlier neighbor in the
//! pattern), so candidates for position `i` always come from the adjacency
//! of an already-matched vertex — the pattern-induced extension of Fig. 1.
//! Symmetry-breaking conditions are pre-translated to per-position
//! `<`/`>` checks against earlier matches.
//!
//! Both walkers of a matching order, the pattern-induced enumerator and
//! the counting-plan executor ([`crate::exec`]), take one candidate step
//! compiled into the plan's [`PlanLevel`] table and intersect nothing
//! (DESIGN.md §14.2): [`ExplorationPlan::candidate_slice`] plus one
//! [`Marks`] test per candidate.

use fractal_graph::kernels::{seek_above, seek_below};
use fractal_graph::{Graph, VertexId};

use crate::symmetry::SymmetryConditions;
use crate::Pattern;

/// One position of a matching order, compiled for the candidate step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanLevel {
    /// The latest back edge: its match's neighbour slice is the one scanned.
    pub latest: u8,
    /// Bits of the earlier back-edge positions; a candidate must carry all
    /// of them in its [`Marks`]. Zero when `latest` is the only back edge.
    pub mask: u32,
    /// Whether a match at this position marks its neighbourhood: true iff
    /// some deeper level tests this position's bit, i.e. has it as a back
    /// edge that is not that level's latest one.
    pub sets_mark: bool,
    /// Bits of the positions whose match the candidate must exceed.
    pub above: u32,
    /// Bits of the positions whose match must exceed the candidate.
    pub below: u32,
    /// Whether this is the deepest level and it closes on the root: its
    /// back edges are the root and `latest` only, and it has no symmetry
    /// bound. Its hits in the slice are then `|N(root) ∩ N(match at
    /// latest)|`, which the counting executor reads from a per-root table
    /// of common-neighbour counts instead of scanning (DESIGN.md §14.2).
    pub closes_on_root: bool,
}

/// The positions set in `bits`, ascending.
fn positions(mut bits: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let p = bits.trailing_zeros() as usize;
        bits &= bits.wrapping_sub(1);
        (p < 32).then_some(p)
    })
}

/// Per-vertex position marks of one walker: bit `p` of a vertex's word is
/// set while the vertex is adjacent to the match at position `p`. The marks
/// remember which neighbourhoods they hold, so [`clear`](Self::clear)
/// unsets exactly what is still set, also after a walk unwound mid-depth,
/// in `O(Σ deg)` of what was marked, never `O(|V|)`. They also count the
/// vertices whose word is nonzero: the size of the union of the held
/// neighbourhoods.
#[derive(Debug, Default, Clone)]
pub struct Marks {
    /// One word per graph vertex, grown on the first mark.
    words: Vec<u32>,
    /// `(vertex, bit, covered before it)` of every neighbourhood marked and
    /// not yet unmarked, in marking order.
    marked: Vec<(u32, u32, u32)>,
    /// Vertices with a nonzero word.
    covered: u32,
}

impl Marks {
    /// Sets `bit` on every neighbour of `v`.
    #[inline]
    pub fn mark(&mut self, g: &Graph, v: u32, bit: u32) {
        if self.words.len() < g.num_vertices() {
            self.words.resize(g.num_vertices(), 0);
        }
        self.marked.push((v, bit, self.covered));
        let mut fresh = 0;
        for &u in g.neighbors(VertexId(v)) {
            let word = &mut self.words[u as usize];
            fresh += (*word == 0) as u32;
            *word |= bit;
        }
        self.covered += fresh;
    }

    /// Clears the most recently marked neighbourhood.
    #[inline]
    pub fn unmark_last(&mut self, g: &Graph) {
        let (v, bit, covered) = self.marked.pop().expect("unmark without a mark");
        for &u in g.neighbors(VertexId(v)) {
            self.words[u as usize] &= !bit;
        }
        self.covered = covered;
    }

    /// Clears every neighbourhood still marked.
    pub fn clear(&mut self, g: &Graph) {
        self.follow(g, &[], 0);
    }

    /// Holds `N(prefix[p])` at bit `p` for each position `p` of the prefix
    /// in `marking`, and nothing else: what is held for the longest common
    /// prefix stays, the rest is unmarked, the missing positions are marked.
    /// A walker that calls this on entry to each level follows any prefix,
    /// also one a thief rebuilt or an unwound unit left, with no marking in
    /// its push and pop.
    pub fn follow(&mut self, g: &Graph, prefix: &[u32], marking: u32) {
        let at = || positions(marking).take_while(|&p| p < prefix.len());
        let held = at()
            .zip(&self.marked)
            .take_while(|&(p, &(v, bit, _))| v == prefix[p] && bit == 1 << p)
            .count();
        while self.marked.len() > held {
            self.unmark_last(g);
        }
        for p in at().skip(held) {
            self.mark(g, prefix[p], 1 << p);
        }
    }

    /// The position bits `u` carries.
    #[inline(always)]
    pub fn word(&self, u: u32) -> u32 {
        self.words[u as usize]
    }

    /// Whether `u` carries every bit of `mask` (always, for mask 0).
    #[inline(always)]
    pub fn carries(&self, u: u32, mask: u32) -> bool {
        mask == 0 || self.words[u as usize] & mask == mask
    }

    /// How many vertices carry some bit: the size of the held union.
    #[inline]
    pub fn covered(&self) -> u32 {
        self.covered
    }

    /// Whether nothing is marked: no neighbourhood held and every word zero.
    pub fn is_clear(&self) -> bool {
        self.marked.is_empty() && self.covered == 0 && self.words.iter().all(|&w| w == 0)
    }

    /// Bytes kept resident: the words and the record of what is marked.
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u32>()
            + self.marked.capacity() * std::mem::size_of::<(u32, u32, u32)>()
    }
}

/// A compiled matching order for a query pattern.
#[derive(Debug, Clone)]
pub struct ExplorationPlan {
    pattern: Pattern,
    /// `order[pos]` = pattern vertex matched at position `pos`.
    order: Vec<u8>,
    /// `pos_of[v]` = position at which pattern vertex `v` is matched.
    pos_of: Vec<u8>,
    /// Vertex label required at each position.
    labels: Vec<u32>,
    /// For each position, `(earlier_position, edge_label)` pairs: the
    /// candidate must be adjacent (with that edge label) to each of them.
    back_edges: Vec<Vec<(u8, u32)>>,
    /// Positions at which earlier matched vertices must NOT be adjacent to
    /// the candidate are implied by induced matching; pattern-induced
    /// matching in the paper is *not* induced, so non-edges are not checked.
    conditions: SymmetryConditions,
    /// The candidate step of each position; its `above`/`below` bits are
    /// the symmetry conditions translated to earlier positions.
    levels: Vec<PlanLevel>,
}

impl ExplorationPlan {
    /// Compiles a plan for `pattern` with Grochow–Kellis symmetry breaking.
    ///
    /// Panics if the pattern is empty or disconnected (the model mines
    /// connected subgraphs only).
    pub fn new(pattern: &Pattern) -> Self {
        Self::with_conditions(pattern, SymmetryConditions::for_pattern(pattern))
    }

    /// Compiles a plan without symmetry breaking; every automorphic image
    /// of each match is enumerated. Useful for testing and for measuring
    /// the cost of redundancy.
    pub fn without_symmetry(pattern: &Pattern) -> Self {
        Self::with_conditions(pattern, SymmetryConditions::none())
    }

    fn with_conditions(pattern: &Pattern, conditions: SymmetryConditions) -> Self {
        let n = pattern.num_vertices();
        assert!(n > 0, "cannot plan an empty pattern");
        assert!(pattern.is_connected(), "query pattern must be connected");
        Self::build(pattern, Self::greedy_order(pattern), conditions)
    }

    /// Compiles a plan with an explicit matching order (the planner's cost
    /// model picks orders itself instead of relying on the greedy default).
    ///
    /// Panics if `order` is not a permutation of the pattern vertices or is
    /// not connected (every position after the first must have an earlier
    /// pattern neighbor).
    pub fn with_order(pattern: &Pattern, order: Vec<u8>, conditions: SymmetryConditions) -> Self {
        let n = pattern.num_vertices();
        assert!(n > 0, "cannot plan an empty pattern");
        assert_eq!(order.len(), n, "order must cover every pattern vertex");
        let mut seen = vec![false; n];
        for &v in &order {
            assert!(
                (v as usize) < n && !seen[v as usize],
                "order must be a permutation"
            );
            seen[v as usize] = true;
        }
        for pos in 1..n {
            assert!(
                order[..pos]
                    .iter()
                    .any(|&u| pattern.adjacent(u as usize, order[pos] as usize)),
                "matching order must be connected (position {pos} has no earlier neighbor)"
            );
        }
        Self::build(pattern, order, conditions)
    }

    /// Greedy order: start at the max-degree vertex, then repeatedly take
    /// the vertex with the most already-ordered neighbors (ties: higher
    /// degree, then smaller id). More constrained positions come earlier,
    /// which shrinks the candidate sets.
    fn greedy_order(pattern: &Pattern) -> Vec<u8> {
        let n = pattern.num_vertices();
        let mut order: Vec<u8> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let first = (0..n)
            .max_by_key(|&v| (pattern.degree(v), std::cmp::Reverse(v)))
            .unwrap();
        order.push(first as u8);
        placed[first] = true;
        while order.len() < n {
            let next = (0..n)
                .filter(|&v| !placed[v])
                .max_by_key(|&v| {
                    let matched_nbrs = order
                        .iter()
                        .filter(|&&u| pattern.adjacent(u as usize, v))
                        .count();
                    (matched_nbrs, pattern.degree(v), std::cmp::Reverse(v))
                })
                .unwrap();
            debug_assert!(
                order.iter().any(|&u| pattern.adjacent(u as usize, next)),
                "connected pattern must always offer an attached vertex"
            );
            order.push(next as u8);
            placed[next] = true;
        }
        order
    }

    fn build(pattern: &Pattern, order: Vec<u8>, conditions: SymmetryConditions) -> Self {
        let n = pattern.num_vertices();
        let mut pos_of = vec![0u8; n];
        for (pos, &v) in order.iter().enumerate() {
            pos_of[v as usize] = pos as u8;
        }
        let labels = order
            .iter()
            .map(|&v| pattern.vertex_label(v as usize))
            .collect();
        let mut back_edges: Vec<Vec<(u8, u32)>> = vec![Vec::new(); n];
        for (pos, &v) in order.iter().enumerate() {
            for (epos, &u) in order[..pos].iter().enumerate() {
                if pattern.adjacent(u as usize, v as usize) {
                    let l = pattern.edge_label(u as usize, v as usize).unwrap();
                    back_edges[pos].push((epos as u8, l));
                }
            }
        }
        let mut levels = vec![PlanLevel::default(); n];
        for &(a, b) in &conditions.less_than {
            let (pa, pb) = (pos_of[a as usize], pos_of[b as usize]);
            if pa < pb {
                // match[a] already fixed; candidate at pb must be greater.
                levels[pb as usize].above |= 1 << pa;
            } else {
                // candidate at pa must be smaller than match at pb.
                levels[pa as usize].below |= 1 << pb;
            }
        }
        let mut tested = 0u32;
        for (level, back) in levels.iter_mut().zip(&back_edges).skip(1) {
            // Back edges are listed by ascending earlier position.
            let (&(latest, _), earlier) = back.split_last().expect("matching orders are connected");
            level.latest = latest;
            level.mask = earlier.iter().fold(0, |m, &(p, _)| m | 1 << p);
            tested |= level.mask;
        }
        for (pos, level) in levels.iter_mut().enumerate() {
            level.sets_mark = tested >> pos & 1 == 1;
        }
        let deepest = &mut levels[n - 1];
        deepest.closes_on_root =
            deepest.mask == 1 && deepest.latest != 0 && deepest.above | deepest.below == 0;

        ExplorationPlan {
            pattern: pattern.clone(),
            order,
            pos_of,
            labels,
            back_edges,
            conditions,
            levels,
        }
    }

    /// The compiled pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of positions (= pattern vertices).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the plan is empty (never true: construction rejects empty
    /// patterns).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Pattern vertex matched at `pos`.
    #[inline(always)]
    pub fn vertex_at(&self, pos: usize) -> u8 {
        self.order[pos]
    }

    /// Position of pattern vertex `v`.
    #[inline(always)]
    pub fn position_of(&self, v: usize) -> u8 {
        self.pos_of[v]
    }

    /// Required vertex label at `pos`.
    #[inline(always)]
    pub fn label_at(&self, pos: usize) -> u32 {
        self.labels[pos]
    }

    /// `(earlier_position, edge_label)` adjacency constraints at `pos`.
    /// Non-empty for every `pos ≥ 1`.
    #[inline(always)]
    pub fn back_edges(&self, pos: usize) -> &[(u8, u32)] {
        &self.back_edges[pos]
    }

    /// Earlier positions whose match must exceed the candidate at `pos`.
    pub fn must_be_less_than(&self, pos: usize) -> impl Iterator<Item = u8> {
        positions(self.levels[pos].below).map(|p| p as u8)
    }

    /// Earlier positions whose match must be below the candidate at `pos`.
    pub fn must_be_greater_than(&self, pos: usize) -> impl Iterator<Item = u8> {
        positions(self.levels[pos].above).map(|p| p as u8)
    }

    /// The compiled candidate step at `pos`.
    #[inline(always)]
    pub fn level(&self, pos: usize) -> &PlanLevel {
        &self.levels[pos]
    }

    /// The candidate step at `pos ≥ 1` over the matches of the earlier
    /// positions: the neighbour slice of the latest back edge's match,
    /// trimmed by `seek_above`/`seek_below` to the open interval between
    /// the largest match the candidate must exceed and the smallest it must
    /// stay below. Ascending, like every adjacency slice. A vertex of the
    /// slice is a candidate iff it [`carries`](Marks::carries) the level's
    /// `mask` and is not matched already.
    #[inline]
    pub fn candidate_slice<'g>(&self, g: &'g Graph, pos: usize, matched: &[u32]) -> &'g [u32] {
        let level = &self.levels[pos];
        let mut slice = g.neighbors(VertexId(matched[level.latest as usize]));
        if let Some(lo) = positions(level.above).map(|p| matched[p]).max() {
            slice = seek_above(slice, lo);
        }
        if let Some(hi) = positions(level.below).map(|p| matched[p]).min() {
            slice = seek_below(slice, hi);
        }
        slice
    }

    /// The symmetry conditions the plan encodes.
    pub fn conditions(&self) -> &SymmetryConditions {
        &self.conditions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_connected() {
        for p in [
            Pattern::path(5),
            Pattern::cycle(6),
            Pattern::star(4),
            Pattern::clique(4),
        ] {
            let plan = ExplorationPlan::new(&p);
            assert_eq!(plan.len(), p.num_vertices());
            for pos in 1..plan.len() {
                assert!(
                    !plan.back_edges(pos).is_empty(),
                    "position {pos} of {p} has no back edge"
                );
            }
        }
    }

    #[test]
    fn star_starts_at_center() {
        let plan = ExplorationPlan::new(&Pattern::star(4));
        assert_eq!(plan.vertex_at(0), 0);
        // Every leaf connects straight back to position 0.
        for pos in 1..plan.len() {
            assert_eq!(plan.back_edges(pos), &[(0, 0)]);
        }
    }

    #[test]
    fn back_edges_carry_labels() {
        let p = Pattern::new(vec![0, 0, 0], vec![(0, 1, 7), (1, 2, 8), (0, 2, 9)]);
        let plan = ExplorationPlan::new(&p);
        let labels: Vec<u32> = plan.back_edges(2).iter().map(|&(_, l)| l).collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&7) || labels.contains(&8) || labels.contains(&9));
    }

    #[test]
    fn conditions_translate_to_position_checks() {
        let plan = ExplorationPlan::new(&Pattern::clique(3));
        // Triangle: 3 total-order conditions distributed over positions.
        let total: usize = (0..3)
            .map(|p| plan.must_be_less_than(p).count() + plan.must_be_greater_than(p).count())
            .sum();
        assert_eq!(total, 3);
        // Position 0 can never carry a check (nothing earlier).
        assert!(plan.must_be_less_than(0).next().is_none());
        assert!(plan.must_be_greater_than(0).next().is_none());
    }

    #[test]
    fn without_symmetry_has_no_checks() {
        let plan = ExplorationPlan::without_symmetry(&Pattern::clique(4));
        for pos in 0..4 {
            assert!(plan.must_be_less_than(pos).next().is_none());
            assert!(plan.must_be_greater_than(pos).next().is_none());
        }
    }

    #[test]
    fn explicit_order_is_honored() {
        let p = Pattern::path(4); // 0-1-2-3
        let order = vec![1u8, 2, 3, 0];
        let plan = ExplorationPlan::with_order(&p, order.clone(), SymmetryConditions::none());
        for (pos, &v) in order.iter().enumerate() {
            assert_eq!(plan.vertex_at(pos), v);
            assert_eq!(plan.position_of(v as usize), pos as u8);
        }
        // Back edges follow the explicit order: pos 1 (vertex 2) attaches to
        // pos 0 (vertex 1); pos 3 (vertex 0) attaches to pos 0 (vertex 1).
        assert_eq!(plan.back_edges(1), &[(0, 0)]);
        assert_eq!(plan.back_edges(3), &[(0, 0)]);
    }

    #[test]
    fn explicit_order_translates_conditions() {
        // Triangle with root 0 fixed: stabilizer swaps {1,2}, giving the
        // single condition 1 < 2. Root-first order keeps position 0 clean.
        use crate::autom::{automorphisms, stabilizer};
        let p = Pattern::clique(3);
        let stab = stabilizer(&automorphisms(&p), 0);
        let conds = SymmetryConditions::for_group(3, stab);
        let plan = ExplorationPlan::with_order(&p, vec![0, 1, 2], conds);
        assert!(plan.must_be_less_than(0).next().is_none());
        assert!(plan.must_be_greater_than(0).next().is_none());
        let total: usize = (0..3)
            .map(|pos| plan.must_be_less_than(pos).count() + plan.must_be_greater_than(pos).count())
            .sum();
        assert_eq!(total, 1);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn explicit_order_rejects_duplicates() {
        ExplorationPlan::with_order(&Pattern::path(3), vec![0, 0, 1], SymmetryConditions::none());
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn explicit_order_rejects_disconnected_order() {
        // 0-1-2-3 path: order 0,3 is disconnected at position 1.
        ExplorationPlan::with_order(
            &Pattern::path(4),
            vec![0, 3, 1, 2],
            SymmetryConditions::none(),
        );
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let p = Pattern::new(vec![0, 0, 0], vec![(0, 1, 0)]);
        ExplorationPlan::new(&p);
    }
}
