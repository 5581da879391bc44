//! Frequent subgraph mining (§2.2, Listing 3) with minimum image-based
//! support [7].
//!
//! FSM grows edge-induced subgraphs level by level; after each level a
//! global aggregation computes, per pattern, the *domain* of graph vertices
//! seen at each canonical pattern position; the support is the minimum
//! domain size, which is anti-monotone. An aggregation filter prunes
//! subgraphs whose pattern fell below the threshold — the W4
//! synchronization point that makes FSM a multi-step application.
//!
//! Two variants are provided:
//!
//! - [`fsm`] — the exact Listing 3 workflow: one growing fractoid chain,
//!   re-executed from scratch every iteration with computed aggregations
//!   reused (§4.1, Algorithm 2);
//! - [`fsm_with_reduction`] — additionally applies the transparent graph
//!   reduction of §4.3 between iterations, re-materializing the input to
//!   only the vertices/edges that participated in the previous level's
//!   subgraphs. Domains are recorded in original-graph ids so supports are
//!   unaffected by re-indexing.

use fractal_core::{Aggregator, ExecutionReport, FractalGraph, Fractoid};
use fractal_pattern::canon::InternedForm;
use fractal_pattern::CanonicalCode;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The set of original graph vertex ids seen at one canonical pattern
/// position.
///
/// A sorted list while `32 · len ≤ max + 1`; past that a bitmap over
/// `0..=max`, one `u32` word per 32 ids, with a count. A bitmap is chosen
/// only when it has no more words than the list has ids, so a domain never
/// takes more bytes than its list would, however sparse the ids. The shape
/// is a function of the set alone, so equal sets compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain(Repr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// Strictly increasing ids.
    List(Vec<u32>),
    /// Bit `v % 32` of word `v / 32` is set for each id `v`; `max / 32 + 1`
    /// words, `len` bits set.
    Bits { words: Vec<u32>, len: usize },
}

/// Whether `len` ids up to `max` are kept as a list.
#[inline]
fn sparse(len: usize, max: u32) -> bool {
    32 * len as u64 <= max as u64 + 1
}

/// The bitmap of strictly increasing `ids`, the largest of which is `max`.
fn bits_of(ids: &[u32], max: u32) -> Repr {
    let mut words = vec![0u32; (max >> 5) as usize + 1];
    for &v in ids {
        words[(v >> 5) as usize] |= 1 << (v & 31);
    }
    Repr::Bits {
        words,
        len: ids.len(),
    }
}

/// Merges strictly increasing `add` into strictly increasing `list` in
/// place, from the back.
fn merge_sorted(list: &mut Vec<u32>, add: &[u32]) {
    if list.last().is_none_or(|&last| add[0] > last) {
        list.extend_from_slice(add);
        return;
    }
    let new = add
        .iter()
        .filter(|v| list.binary_search(v).is_err())
        .count();
    let (mut i, mut j) = (list.len(), add.len());
    list.resize(i + new, 0);
    let mut w = list.len();
    while j > 0 {
        w -= 1;
        if i > 0 && list[i - 1] >= add[j - 1] {
            if list[i - 1] == add[j - 1] {
                j -= 1;
            }
            i -= 1;
            list[w] = list[i];
        } else {
            j -= 1;
            list[w] = add[j];
        }
    }
}

impl Default for Domain {
    fn default() -> Self {
        Domain(Repr::List(Vec::new()))
    }
}

impl FromIterator<u32> for Domain {
    fn from_iter<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        let mut ids: Vec<u32> = ids.into_iter().collect();
        let mut domain = Domain::default();
        domain.add(&mut ids);
        domain
    }
}

impl Domain {
    /// The domain of `ids`, or `None` unless they are strictly increasing
    /// (the wire layout).
    pub fn from_increasing(ids: Vec<u32>) -> Option<Domain> {
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        Some(match ids.last() {
            Some(&max) if !sparse(ids.len(), max) => Domain(bits_of(&ids, max)),
            _ => Domain(Repr::List(ids)),
        })
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::List(ids) => ids.len(),
            Repr::Bits { len, .. } => *len,
        }
    }

    /// Whether no id was seen.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the domain is a bitmap rather than a list.
    pub fn is_bitmap(&self) -> bool {
        matches!(self.0, Repr::Bits { .. })
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (ids, words): (&[u32], &[u32]) = match &self.0 {
            Repr::List(ids) => (ids, &[]),
            Repr::Bits { words, .. } => (&[], words),
        };
        let bits = words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    at as u32 * 32 + bit
                })
            })
        });
        ids.iter().copied().chain(bits)
    }

    /// Adds one id.
    #[inline]
    fn insert(&mut self, v: u32) {
        match &mut self.0 {
            Repr::Bits { words, len } if ((v >> 5) as usize) < words.len() => {
                let (word, bit) = (&mut words[(v >> 5) as usize], 1 << (v & 31));
                *len += (*word & bit == 0) as usize;
                *word |= bit;
            }
            Repr::List(list) => {
                if let Err(at) = list.binary_search(&v) {
                    list.insert(at, v);
                    let max = list[list.len() - 1];
                    if !sparse(list.len(), max) {
                        self.0 = bits_of(list, max);
                    }
                }
            }
            _ => self.add_increasing(&[v]),
        }
    }

    /// Adds `ids`, in any order and with repeats; leaves `ids` in no
    /// particular order.
    fn add(&mut self, ids: &mut Vec<u32>) {
        if let Repr::Bits { words, len } = &mut self.0 {
            if ids.iter().all(|&v| ((v >> 5) as usize) < words.len()) {
                for &v in ids.iter() {
                    let (word, bit) = (&mut words[(v >> 5) as usize], 1 << (v & 31));
                    *len += (*word & bit == 0) as usize;
                    *word |= bit;
                }
                return;
            }
        }
        ids.sort_unstable();
        ids.dedup();
        self.add_increasing(ids);
    }

    /// Adds strictly increasing `ids`, then takes the shape the new length
    /// and largest id call for.
    fn add_increasing(&mut self, ids: &[u32]) {
        let Some(&top) = ids.last() else {
            return;
        };
        match &mut self.0 {
            Repr::List(list) => {
                merge_sorted(list, ids);
                let max = list[list.len() - 1];
                if !sparse(list.len(), max) {
                    self.0 = bits_of(list, max);
                }
            }
            Repr::Bits { words, len } => {
                let seen = |v: u32| {
                    words
                        .get((v >> 5) as usize)
                        .is_some_and(|w| w >> (v & 31) & 1 != 0)
                };
                let grown = *len + ids.iter().filter(|&&v| !seen(v)).count();
                let last = words.len() - 1;
                let max = top.max(last as u32 * 32 + 31 - words[last].leading_zeros());
                if sparse(grown, max) {
                    let mut list: Vec<u32> = self.iter().collect();
                    merge_sorted(&mut list, ids);
                    self.0 = Repr::List(list);
                } else {
                    words.resize((max >> 5) as usize + 1, 0);
                    for &v in ids {
                        words[(v >> 5) as usize] |= 1 << (v & 31);
                    }
                    *len = grown;
                }
            }
        }
    }

    /// Moves every id of `other` into this domain, leaving `other` empty.
    fn absorb(&mut self, other: &mut Domain) {
        let other = std::mem::take(other);
        if self.is_empty() {
            *self = other;
            return;
        }
        let (theirs, their_len) = match other.0 {
            Repr::List(ids) => return self.add_increasing(&ids),
            Repr::Bits { words, len } => (words, len),
        };
        match &mut self.0 {
            Repr::List(mine) => {
                let mine = std::mem::take(mine);
                self.0 = Repr::Bits {
                    words: theirs,
                    len: their_len,
                };
                self.add_increasing(&mine);
            }
            Repr::Bits { words, len } => {
                // Two dense sets stay dense: the union has at least the
                // larger count and the larger maximum of the two.
                if words.len() < theirs.len() {
                    words.resize(theirs.len(), 0);
                }
                for (mine, theirs) in words.iter_mut().zip(theirs) {
                    *mine |= theirs;
                }
                *len = words.iter().map(|w| w.count_ones() as usize).sum();
            }
        }
    }
}

/// Folds `rows` of `reps.len()` ids each into the domains of their orbit
/// representatives.
fn fold_rows(domains: &mut [Domain], reps: &[u8], rows: &[u32]) {
    if rows.is_empty() {
        return;
    }
    for row in rows.chunks_exact(reps.len()) {
        for (&v, &rep) in row.iter().zip(reps) {
            domains[rep as usize].insert(v);
        }
    }
}

/// Minimum image-based support: one vertex domain per canonical pattern
/// position (the paper's `DomainSupport`).
///
/// Two sides. A fold *stages* an embedding as one row of original vertex
/// ids appended to a flat buffer, with no hashing and no per-position
/// container; [`absorb`](Self::absorb) *commits* rows into the
/// [`Domain`]s. A value read for its support or domains must hold no staged
/// rows: the aggregation passes every value through `absorb` before anyone
/// reads it (`Aggregator::by_pattern` settles each class's value with
/// `absorb(value, empty(code))`), and [`support`](Self::support) and
/// [`domains`](Self::domains) panic on rows left over.
#[derive(Debug, Clone, Default)]
pub struct DomainSupport {
    /// The class's `orbit_reps`, copied on the first fold.
    reps: Vec<u8>,
    /// Staged embeddings, `reps.len()` ids each: `row[perm[i]]` is the
    /// original id of the subgraph's `i`-th vertex.
    rows: Vec<u32>,
    domains: Vec<Domain>,
}

impl DomainSupport {
    /// The support of a pattern of `positions` vertices with no embedding
    /// inserted yet.
    pub fn empty(positions: usize) -> Self {
        DomainSupport {
            domains: vec![Domain::default(); positions],
            ..DomainSupport::default()
        }
    }

    /// Stages one embedding: the subgraph's `vertices` (insertion order),
    /// translated to the original input graph via `fg` so reductions
    /// between steps don't skew supports, are written as one row in the
    /// canonical position order `form.perm` gives. Every embedding folded
    /// into one value must be of one pattern class.
    ///
    /// Positions in the same automorphism orbit have identical domains
    /// under exact minimum-image support; committing each vertex into its
    /// orbit representative's domain (`form.orbit_reps`) makes the computed
    /// support exact (and therefore anti-monotone) even though each
    /// subgraph instance is enumerated with a single canonical mapping.
    #[inline]
    pub fn insert(&mut self, vertices: &[u32], form: InternedForm<'_>, fg: &FractalGraph) {
        if self.reps.is_empty() {
            self.reps.extend_from_slice(form.orbit_reps);
        }
        debug_assert_eq!(self.reps, form.orbit_reps, "one value, two pattern classes");
        let base = self.rows.len();
        self.rows.resize(base + self.reps.len(), 0);
        let row = &mut self.rows[base..];
        for (&v, &pos) in vertices.iter().zip(form.perm) {
            row[pos as usize] = fg.orig_vertex(v);
        }
    }

    /// Positionwise domain union: commits this value's own staged rows and
    /// `other`'s, then moves `other`'s domains in. `other` is left empty
    /// with its row buffer allocated (the staged support of a unit is
    /// absorbed on commit and refilled by the next unit); this value's own
    /// row buffer, staged only before a first-sight move, is freed.
    pub fn absorb(&mut self, other: &mut DomainSupport) {
        let positions = [
            self.domains.len(),
            other.domains.len(),
            self.reps.len(),
            other.reps.len(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        if self.domains.len() < positions {
            self.domains.resize_with(positions, Domain::default);
        }
        fold_rows(&mut self.domains, &self.reps, &self.rows);
        self.rows = Vec::new();
        fold_rows(&mut self.domains, &other.reps, &other.rows);
        other.rows.clear();
        for (mine, theirs) in self.domains.iter_mut().zip(&mut other.domains) {
            mine.absorb(theirs);
        }
    }

    /// Positionwise domain union (the aggregation's reduce function).
    pub fn merge(&mut self, mut other: DomainSupport) {
        self.absorb(&mut other);
    }

    /// The minimum image-based support: min over orbit-representative
    /// positions of the domain size. Non-representative positions are
    /// always empty (their vertices fold into the representative) and are
    /// skipped.
    pub fn support(&self) -> u64 {
        self.domains()
            .iter()
            .filter(|d| !d.is_empty())
            .map(|d| d.len() as u64)
            .min()
            .unwrap_or(0)
    }

    /// Whether the support meets `threshold` (the paper's
    /// `hasEnoughSupport`).
    pub fn has_enough_support(&self, threshold: u64) -> bool {
        self.support() >= threshold
    }

    /// The per-position vertex domains (wire serialization support).
    pub fn domains(&self) -> &[Domain] {
        assert!(
            self.rows.is_empty(),
            "DomainSupport read with {} staged ids not committed: absorb it first",
            self.rows.len()
        );
        &self.domains
    }

    /// Rebuilds a support from decoded domains — the inverse of
    /// [`DomainSupport::domains`].
    pub fn from_domains(domains: Vec<Domain>) -> Self {
        DomainSupport {
            domains,
            ..DomainSupport::default()
        }
    }
}

/// One frequent pattern in the result set.
#[derive(Debug, Clone)]
pub struct FrequentPattern {
    /// The canonical pattern.
    pub code: CanonicalCode,
    /// Its exact minimum-image support.
    pub support: u64,
    /// Number of edges of the pattern.
    pub num_edges: usize,
}

/// The FSM result: all frequent patterns plus per-iteration reports.
#[derive(Debug, Default)]
pub struct FsmResult {
    /// Frequent patterns, grouped by the iteration that found them.
    pub frequent: Vec<FrequentPattern>,
    /// One execution report per mining iteration.
    pub reports: Vec<ExecutionReport>,
}

impl FsmResult {
    /// Patterns of a given edge count.
    pub fn of_size(&self, num_edges: usize) -> Vec<&FrequentPattern> {
        self.frequent
            .iter()
            .filter(|p| p.num_edges == num_edges)
            .collect()
    }

    /// Largest frequent pattern size found.
    pub fn max_size(&self) -> usize {
        self.frequent.iter().map(|p| p.num_edges).max().unwrap_or(0)
    }

    /// Appends one round's frequent patterns of `num_edges` edges, sorted
    /// by code so the result does not depend on the map's order.
    fn push_round(&mut self, round: &HashMap<CanonicalCode, DomainSupport>, num_edges: usize) {
        let start = self.frequent.len();
        self.frequent
            .extend(round.iter().map(|(code, sup)| FrequentPattern {
                code: code.clone(),
                support: sup.support(),
                num_edges,
            }));
        self.frequent[start..].sort_unstable_by(|a, b| a.code.cmp(&b.code));
    }
}

/// Exact FSM per Listing 3: bootstrap on single edges, then repeatedly
/// `filter_agg` + `expand(1)` + `aggregate` until no pattern of the
/// current size is frequent (or `max_edges` is reached).
pub fn fsm(fg: &FractalGraph, min_support: u64, max_edges: usize) -> FsmResult {
    let mut result = FsmResult::default();
    if max_edges == 0 {
        return result;
    }
    let mut fractoid = fsm_fractoid(fg, min_support, 1);
    let mut size = 1;
    loop {
        result.reports.push(fractoid.execute());
        let frequent = fractoid.aggregation::<CanonicalCode, DomainSupport>("support");
        result.push_round(&frequent, size);
        if frequent.is_empty() || size >= max_edges {
            break;
        }
        size += 1;
        fractoid = grow_round(fractoid, fg, min_support);
    }
    result
}

/// The FSM support aggregator as a standalone spec: canonical pattern →
/// positionwise domain union, with the `hasEnoughSupport` final filter.
/// Distributed drivers and workers use it to move `DomainSupport` maps
/// across the shard/wire boundary with the exact same semantics as the
/// local workflow.
pub fn fsm_support_aggregator(
    fg: &FractalGraph,
    min_support: u64,
) -> Aggregator<CanonicalCode, DomainSupport> {
    let fgc = fg.clone();
    Aggregator::by_pattern(
        "support",
        true,
        true,
        // No domains until a commit sizes them from the orbit
        // representatives: a staged value is its rows and nothing else.
        |_| DomainSupport::default(),
        move |sup: &mut DomainSupport, leaves, form| {
            leaves.for_each(|vertices| sup.insert(vertices, form, &fgc))
        },
        DomainSupport::absorb,
    )
    .with_filter(move |_, v: &DomainSupport| v.has_enough_support(min_support))
}

/// One FSM growth round appended to `fractoid`: keep subgraphs whose
/// pattern was frequent in the previous round, extend by one edge,
/// aggregate supports.
fn grow_round(fractoid: Fractoid, fg: &FractalGraph, min_support: u64) -> Fractoid {
    fractoid
        .filter_agg("support", |s, agg| {
            s.canonical_form(true, true, |form| {
                agg.contains_key::<CanonicalCode, DomainSupport>(form.code)
            })
        })
        .expand(1)
        .aggregate_spec(Arc::new(fsm_support_aggregator(fg, min_support)))
}

/// The FSM fractoid chain after `rounds` growth iterations (round 1 is the
/// single-edge bootstrap; each further round appends
/// `filter_agg + expand(1) + aggregate`). Distributed workers rebuild this
/// chain each round and seed rounds `1..rounds` positionally with the
/// driver-merged frequent sets, which makes the whole chain one fractal
/// step.
pub fn fsm_fractoid(fg: &FractalGraph, min_support: u64, rounds: usize) -> Fractoid {
    assert!(rounds >= 1, "fsm needs at least one round");
    let mut fractoid = fg
        .efractoid()
        .expand(1)
        .aggregate_spec(Arc::new(fsm_support_aggregator(fg, min_support)));
    for _ in 1..rounds {
        fractoid = grow_round(fractoid, fg, min_support);
    }
    fractoid
}

/// FSM with the transparent graph reduction of §4.3: each iteration mines
/// a freshly materialized graph containing only the vertices/edges that
/// participated in at least one subgraph of the previous iteration. Sound
/// by anti-monotonicity: every instance of a frequent (k+1)-pattern is
/// made of edges participating in k-edge candidate subgraphs.
pub fn fsm_with_reduction(fg: &FractalGraph, min_support: u64, max_edges: usize) -> FsmResult {
    let mut result = FsmResult::default();
    let mut current = fg.clone();
    // Per-size frequent pattern keys, used by the level filter when
    // re-enumerating from scratch.
    let mut frequent_sets: Vec<Arc<HashSet<CanonicalCode>>> = Vec::new();

    for size in 1..=max_edges {
        let sets = frequent_sets.clone();
        let fractoid = current
            .efractoid()
            .expand(1)
            .filter(move |s| {
                let k = s.num_edges();
                k == 0
                    || k > sets.len()
                    || s.canonical_form(true, true, |form| sets[k - 1].contains(form.code))
            })
            .explore(size)
            .aggregate_spec(Arc::new(fsm_support_aggregator(&current, min_support)));
        let report = fractoid.execute_tracking_participation();
        let frequent = fractoid.aggregation::<CanonicalCode, DomainSupport>("support");
        let participation = report.participation.clone();
        result.reports.push(report);
        result.push_round(&frequent, size);
        if frequent.is_empty() || size == max_edges {
            break;
        }
        frequent_sets.push(Arc::new(frequent.into_keys().collect()));
        // Materialize the reduced graph for the next iteration.
        if let Some(p) = participation {
            let reduced = current.graph().reduce(&p.vertices, &p.edges);
            current = current.wrap_reduced(reduced);
        }
    }
    result
}

/// Convenience: the frequent patterns as a `(code → support)` map.
pub fn frequent_map(result: &FsmResult) -> HashMap<CanonicalCode, u64> {
    result
        .frequent
        .iter()
        .map(|p| (p.code.clone(), p.support))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_core::{FractalContext, SubgraphView};
    use fractal_graph::builder::graph_from_edges;
    use fractal_graph::gen;
    use fractal_runtime::ClusterConfig;

    fn fg_of(g: fractal_graph::Graph) -> FractalGraph {
        FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(g)
    }

    #[test]
    fn domain_support_merge_and_support() {
        let mut a = DomainSupport::from_domains(vec![
            [1u32, 2].into_iter().collect(),
            [5u32].into_iter().collect(),
        ]);
        let b = DomainSupport::from_domains(vec![
            [2u32, 3].into_iter().collect(),
            [6u32].into_iter().collect(),
        ]);
        a.merge(b);
        assert_eq!(a.support(), 2); // min(|{1,2,3}|, |{5,6}|)
        assert!(a.has_enough_support(2));
        assert!(!a.has_enough_support(3));
    }

    #[test]
    fn inserting_embeddings_one_at_a_time_builds_the_domains() {
        // Two (0)-(1) edges and two (0)-(0) edges sharing vertex 4.
        let g = graph_from_edges(
            &[0, 1, 0, 1, 0],
            &[(0, 1, 0), (2, 3, 0), (0, 4, 0), (2, 4, 0)],
        );
        let fg = fg_of(g);
        let g = fg.graph();
        let mut got: HashMap<CanonicalCode, DomainSupport> = HashMap::new();
        let mut sg = fractal_enum::Subgraph::new(g);
        for e in 0..g.num_edges() as u32 {
            sg.push_edge(g, e);
            let view = SubgraphView {
                graph: g,
                subgraph: &sg,
            };
            view.canonical_form(true, true, |form| {
                got.entry(form.code.clone())
                    .or_insert_with(|| DomainSupport::empty(form.code.num_vertices()))
                    .insert(view.vertices(), form, &fg)
            });
            sg.pop_edge();
        }
        assert_eq!(got.len(), 2);
        for (code, sup) in &mut got {
            // Inserting stages rows; the settle's `absorb(value, empty)`
            // commits them.
            sup.absorb(&mut DomainSupport::empty(code.num_vertices()));
            let pattern = code.to_pattern();
            let want = if pattern.vertex_label(0) == pattern.vertex_label(1) {
                // One orbit: both endpoints of both edges fold into the
                // representative position, the other stays empty.
                vec![[0u32, 2, 4].into_iter().collect(), Domain::default()]
            } else {
                let mut by_label = [[0u32, 2], [1, 3]].map(|d| d.into_iter().collect());
                if pattern.vertex_label(0) == 1 {
                    by_label.reverse();
                }
                by_label.to_vec()
            };
            assert_eq!(sup.domains(), DomainSupport::from_domains(want).domains());
        }
        // Absorbing moves the domains and leaves the source empty but sized.
        let mut all = DomainSupport::default();
        for sup in got.values_mut() {
            let positions = sup.domains().len();
            all.absorb(sup);
            assert_eq!(sup.domains(), DomainSupport::empty(positions).domains());
        }
        // Whichever way the positions line up, the smaller union is a
        // two-vertex by-label domain.
        assert_eq!(all.support(), 2);
    }

    #[test]
    fn a_domain_is_a_list_until_its_bitmap_is_no_larger() {
        // Ids up to 319 fill 10 words: 10 ids are a list, 11 a bitmap.
        let ten: Vec<u32> = (1..10).map(|i| i * 32).chain([319]).collect();
        let list: Domain = ten.iter().copied().collect();
        assert!(!list.is_bitmap());
        assert_eq!(list.len(), 10);
        let mut grown = list.clone();
        grown.add(&mut vec![7, 319, 7]);
        assert!(grown.is_bitmap());
        assert_eq!(grown.len(), 11);
        let mut want: Vec<u32> = ten.clone();
        want.push(7);
        want.sort_unstable();
        assert_eq!(grown.iter().collect::<Vec<_>>(), want);
        // The same set decoded from its ids, or built in another order,
        // has the same shape.
        assert_eq!(Domain::from_increasing(want.clone()), Some(grown.clone()));
        assert_eq!(want.iter().rev().copied().collect::<Domain>(), grown);
        // A far id makes the bitmap sparse again: back to a list.
        let mut far = grown.clone();
        far.add(&mut vec![100_000]);
        assert!(!far.is_bitmap());
        assert_eq!(far.len(), 12);
        assert_eq!(far.iter().last(), Some(100_000));
        // Bitmap ∪ bitmap, list ∪ bitmap and bitmap ∪ list agree.
        let dense: Domain = (300..400).collect();
        assert!(dense.is_bitmap());
        let mut all: Vec<u32> = want.iter().copied().chain(300..400).collect();
        all.sort_unstable();
        all.dedup();
        for (a, b) in [
            (&grown, &dense),
            (&dense, &grown),
            (&list, &dense),
            (&dense, &list),
        ] {
            let (mut into, mut from) = (a.clone(), b.clone());
            into.absorb(&mut from);
            assert!(from.is_empty());
            let want: Domain = a.iter().chain(b.iter()).collect();
            assert_eq!(into, want);
        }
        let mut union = grown.clone();
        union.absorb(&mut dense.clone());
        assert_eq!(union.iter().collect::<Vec<_>>(), all);
    }

    #[test]
    fn sparse_ids_near_the_top_of_u32_stay_a_list() {
        let top: Vec<u32> = (0..40).map(|i| u32::MAX - 3 * i).collect();
        let mut domain: Domain = top.iter().copied().collect();
        assert!(!domain.is_bitmap());
        assert_eq!(domain.len(), 40);
        // A dense low bitmap that meets an id at the top turns into a
        // list rather than a 512 MiB bitmap.
        let mut low: Domain = (0..64).collect();
        assert!(low.is_bitmap());
        low.add(&mut vec![u32::MAX]);
        assert!(!low.is_bitmap());
        assert_eq!(low.len(), 65);
        domain.absorb(&mut low);
        assert!(!domain.is_bitmap());
        assert_eq!(domain.len(), 40 + 64);
        let ids: Vec<u32> = domain.iter().collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.last(), Some(&u32::MAX));
        assert_eq!(Domain::from_increasing(ids), Some(domain));
    }

    #[test]
    #[should_panic(expected = "staged ids not committed")]
    fn support_refuses_rows_not_committed() {
        let fg = fg_of(gen::path(3));
        let g = fg.graph();
        let mut sup = DomainSupport::default();
        let mut sg = fractal_enum::Subgraph::new(g);
        sg.push_edge(g, 0);
        let view = SubgraphView {
            graph: g,
            subgraph: &sg,
        };
        view.canonical_form(true, true, |form| sup.insert(view.vertices(), form, &fg));
        sup.support();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// The aggregation's life of a support, against one `BTreeSet` per
        /// canonical position: embeddings of one or two edges staged into a
        /// unit, units committed to one of two cores' durable shards or
        /// aborted, first-sight moves settled, and the two cores' decoded
        /// values merged as the driver merges them.
        #[test]
        fn supports_match_a_set_per_position(
            n in 6usize..=400,
            m in 8usize..=120,
            labels in 1u32..=3,
            seed in proptest::prelude::any::<u64>(),
            steps in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>(), 0u8..6),
                1..80,
            ),
        ) {
            use fractal_core::aggregation::AggregatorSpec;
            use std::collections::BTreeSet;
            type Reference = HashMap<CanonicalCode, Vec<BTreeSet<u32>>>;

            let fg = fg_of(gen::erdos_renyi(n, m, labels, seed));
            let g = fg.graph();
            let spec = fsm_support_aggregator(&fg, 0);
            let (mut staged, mut cores) = (spec.new_shard(), [spec.new_shard(), spec.new_shard()]);
            let mut pending: Vec<(CanonicalCode, usize, u32)> = Vec::new();
            let mut want: Reference = HashMap::new();
            let commit = |pending: &mut Vec<(CanonicalCode, usize, u32)>, want: &mut Reference| {
                for (code, pos, v) in pending.drain(..) {
                    let domains = want
                        .entry(code.clone())
                        .or_insert_with(|| vec![BTreeSet::new(); code.num_vertices()]);
                    domains[pos].insert(v);
                }
            };
            let mut sg = fractal_enum::Subgraph::new(g);
            for (pick, next, action) in steps {
                let e = pick % g.num_edges() as u32;
                sg.push_edge(g, e);
                let (u, _) = g.edge_endpoints(fractal_graph::EdgeId(e));
                let more: Vec<u32> = g.incident_edges(u).iter().copied().filter(|&f| f != e).collect();
                if next % 2 == 1 && !more.is_empty() {
                    sg.push_edge(g, more[next as usize / 2 % more.len()]);
                }
                let view = SubgraphView { graph: g, subgraph: &sg };
                staged.accumulate(&view);
                view.canonical_form(true, true, |form| {
                    for (&v, &at) in view.vertices().iter().zip(form.perm) {
                        pending.push((form.code.clone(), form.orbit_reps[at as usize] as usize, v));
                    }
                });
                while sg.num_edges() > 0 {
                    sg.pop_edge();
                }
                match action {
                    3 | 4 => {
                        staged.drain_into(&mut *cores[(action - 3) as usize]);
                        commit(&mut pending, &mut want);
                    }
                    5 => {
                        staged.reset();
                        pending.clear();
                    }
                    _ => {}
                }
            }
            staged.drain_into(&mut *cores[0]);
            commit(&mut pending, &mut want);

            // Each core settles and encodes its map; the driver decodes and
            // merges them.
            let mut got: HashMap<CanonicalCode, DomainSupport> = HashMap::new();
            for core in cores {
                for (code, sup) in Aggregator::<CanonicalCode, DomainSupport>::take_map(core) {
                    let decoded = DomainSupport::from_domains(
                        sup.domains()
                            .iter()
                            .map(|d| Domain::from_increasing(d.iter().collect()).expect("ascending"))
                            .collect(),
                    );
                    match got.entry(code) {
                        std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(decoded),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(decoded);
                        }
                    }
                }
            }
            proptest::prop_assert_eq!(got.len(), want.len());
            for (code, domains) in &want {
                let sup = &got[code];
                let have: Vec<BTreeSet<u32>> =
                    sup.domains().iter().map(|d| d.iter().collect()).collect();
                proptest::prop_assert_eq!(&have, domains, "{:?}", code);
                let min = domains.iter().filter(|d| !d.is_empty()).map(|d| d.len() as u64).min();
                proptest::prop_assert_eq!(sup.support(), min.unwrap_or(0));
            }
        }
    }

    #[test]
    fn single_edge_pattern_support_on_path() {
        // Unlabeled path 0-1-2-3: one 1-edge pattern; domains are
        // {endpoints seen at each canonical position}.
        let fg = fg_of(gen::path(4));
        let r = fsm(&fg, 1, 1);
        assert_eq!(r.frequent.len(), 1);
        let p = &r.frequent[0];
        assert_eq!(p.num_edges, 1);
        // 3 edges; each contributes both endpoints split over 2 positions;
        // support is at least 2 (both positions see >= 2 vertices).
        assert!(p.support >= 2);
    }

    #[test]
    fn labeled_graph_separates_patterns() {
        // Edges: two 0-1 labeled edges, one 0-0 edge (vertex labels).
        let g = graph_from_edges(
            &[0, 1, 0, 1, 0],
            &[(0, 1, 0), (2, 3, 0), (0, 4, 0), (2, 4, 0)],
        );
        let fg = fg_of(g);
        let r = fsm(&fg, 2, 1);
        // Pattern (0)-(1): instances (0,1), (2,3): domains {0,2} and
        // {1,3} -> exact MNI support 2 (frequent).
        // Pattern (0)-(0): instances (0,4), (2,4): both positions share an
        // automorphism orbit, so the merged domain is {0,2,4} -> support 3.
        assert_eq!(r.frequent.len(), 2);
        for p in &r.frequent {
            let pat = p.code.to_pattern();
            let mut labels = vec![pat.vertex_label(0), pat.vertex_label(1)];
            labels.sort_unstable();
            if labels == vec![0, 1] {
                assert_eq!(p.support, 2);
            } else {
                assert_eq!(labels, vec![0, 0]);
                assert_eq!(p.support, 3);
            }
        }
    }

    #[test]
    fn fsm_descends_levels_until_infrequent() {
        // A 4-clique: with threshold 4, the single-edge pattern has
        // support 4; two-edge path support 4; growth continues.
        let fg = fg_of(gen::complete(4));
        let r = fsm(&fg, 4, 3);
        assert!(r.max_size() >= 2, "should mine beyond single edges");
        // With an impossible threshold nothing is frequent.
        let empty = fsm(&fg, 100, 3);
        assert!(empty.frequent.is_empty());
        assert_eq!(empty.reports.len(), 1);
    }

    #[test]
    fn reduction_variant_agrees_with_plain() {
        let g = gen::patents_like(90, 3, 17);
        let fg = fg_of(g);
        for min_sup in [8u64, 20] {
            let plain = frequent_map(&fsm(&fg, min_sup, 3));
            let reduced = frequent_map(&fsm_with_reduction(&fg, min_sup, 3));
            assert_eq!(plain, reduced, "min_sup {min_sup}");
        }
    }

    #[test]
    fn reduction_actually_shrinks_graph() {
        let g = gen::patents_like(120, 4, 23);
        let fg = fg_of(g);
        let r = fsm_with_reduction(&fg, 18, 3);
        // At least two iterations ran and some patterns were found.
        assert!(r.reports.len() >= 2 || r.frequent.is_empty());
    }

    #[test]
    fn supports_are_anti_monotone() {
        let fg = fg_of(gen::mico_like(80, 3, 29));
        let r = fsm(&fg, 5, 3);
        // The max support at size k+1 cannot exceed the max at size k.
        let max_by_size: Vec<u64> = (1..=r.max_size())
            .map(|k| r.of_size(k).iter().map(|p| p.support).max().unwrap_or(0))
            .collect();
        for w in max_by_size.windows(2) {
            assert!(w[1] <= w[0], "supports grew: {max_by_size:?}");
        }
    }
}
