//! User-facing views of subgraphs during and after execution.

use fractal_enum::Subgraph;
use fractal_graph::{EdgeId, Graph, VertexId};
use fractal_pattern::canon::{InternedForm, Level, PatternTable};
use fractal_pattern::{CanonicalCode, Pattern};
use fractal_runtime::sync::{AtomicU64, Ordering};
use std::cell::RefCell;

/// This core's two-level pattern table (quick pattern → canonical
/// pattern) and the identity its [`PatternClass`] handles carry.
struct CoreTable {
    uid: u64,
    table: PatternTable,
}

static NEXT_TABLE_UID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// One table per core thread, living as long as the thread (one fractal
    /// step): the only pattern cache on the engine path. Filters, key
    /// functions and FSM's support all resolve a subgraph through it with
    /// one lookup.
    static PATTERNS: RefCell<CoreTable> = RefCell::new(CoreTable {
        // ordering: Relaxed — uniqueness comes from fetch_add atomicity alone;
        // the uid never synchronizes other memory.
        uid: NEXT_TABLE_UID.fetch_add(1, Ordering::Relaxed),
        table: PatternTable::new(),
    });
}

/// A canonical pattern interned in the calling core's table: the cheap
/// (`Copy`, no heap) stand-in for a [`CanonicalCode`] that pattern-keyed
/// aggregations stage under. Only meaningful on the thread that produced
/// it; [`class_code`] refuses a handle from another core's table.
#[derive(Debug, Clone, Copy)]
pub struct PatternClass {
    pub(crate) table: u64,
    pub(crate) index: u32,
}

/// Runs `f` on the calling core's pattern table and the identity its
/// [`PatternClass`] handles carry. `f` must not ask a view for a pattern.
#[inline]
pub(crate) fn with_patterns<R>(f: impl FnOnce(u64, &mut PatternTable) -> R) -> R {
    PATTERNS.with(|p| {
        let p = &mut *p.borrow_mut();
        f(p.uid, &mut p.table)
    })
}

/// The quick pattern `level` grows out of the interned quick pattern
/// `parent` of `table` (whose identity is `uid`), and its class: what
/// [`SubgraphView::interned`] finds for the extended subgraph, from one
/// trie probe and without the subgraph.
#[inline]
pub(crate) fn classify_child(
    uid: u64,
    table: &mut PatternTable,
    parent: u32,
    level: Level,
) -> (u32, PatternClass) {
    let id = table.child(parent, level);
    let class = PatternClass {
        table: uid,
        index: table.class(id),
    };
    (id, class)
}

/// The canonical code `class` stands for.
pub(crate) fn class_code(class: PatternClass) -> CanonicalCode {
    PATTERNS.with(|p| {
        let p = p.borrow();
        assert_eq!(
            p.uid, class.table,
            "pattern class resolved on a core that did not intern it"
        );
        p.table.class_code(class.index).clone()
    })
}

/// The live subgraph a filter / aggregation closure observes (read-only).
///
/// Ids are in terms of the graph the fractoid executes on; when that graph
/// is a reduction of a larger one, output operators translate back to
/// original ids, but filters see the compact ids (matching the paper, where
/// filters run on the materialized reduced view).
pub struct SubgraphView<'a> {
    /// The input graph of the executing step.
    pub graph: &'a Graph,
    /// The subgraph under the cursor of the DFS.
    pub subgraph: &'a Subgraph,
}

impl SubgraphView<'_> {
    /// Vertices in insertion order.
    #[inline]
    pub fn vertices(&self) -> &[u32] {
        self.subgraph.vertices()
    }

    /// Edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[u32] {
        self.subgraph.edges()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.subgraph.num_vertices()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.subgraph.num_edges()
    }

    /// The most recently added edge.
    #[inline]
    pub fn last_edge(&self) -> Option<EdgeId> {
        self.subgraph.last_edge()
    }

    /// The most recently added vertex.
    #[inline]
    pub fn last_vertex(&self) -> Option<VertexId> {
        self.subgraph.last_vertex()
    }

    /// Edges added by the latest vertex extension (Listing 2's clique
    /// check compares this against `num_vertices - 1`).
    #[inline]
    pub fn last_level_edge_count(&self) -> usize {
        self.subgraph.last_level_edge_count()
    }

    /// Whether the current subgraph is a complete clique.
    pub fn is_clique(&self) -> bool {
        let k = self.num_vertices();
        self.num_edges() == k * (k - 1) / 2
    }

    /// The raw (uncanonicalized) pattern of this subgraph.
    pub fn pattern(&self, use_vlabels: bool, use_elabels: bool) -> Pattern {
        self.subgraph.pattern(self.graph, use_vlabels, use_elabels)
    }

    /// Interns this subgraph's quick pattern in `t`.
    #[inline]
    pub(crate) fn intern(&self, t: &mut PatternTable, use_vlabels: bool, use_elabels: bool) -> u32 {
        t.intern(|q| {
            self.subgraph
                .quick_pattern(self.graph, use_vlabels, use_elabels, q)
        })
    }

    /// This subgraph's quick pattern interned in `table` (whose identity is
    /// `uid`), and its class.
    #[inline]
    pub(crate) fn interned(
        &self,
        uid: u64,
        table: &mut PatternTable,
        use_vlabels: bool,
        use_elabels: bool,
    ) -> (u32, PatternClass) {
        let id = self.intern(table, use_vlabels, use_elabels);
        let class = PatternClass {
            table: uid,
            index: table.class(id),
        };
        (id, class)
    }

    /// The canonical pattern of this subgraph as an interned handle: what a
    /// pattern-keyed aggregation stages under
    /// ([`Aggregator::by_pattern`](crate::Aggregator::by_pattern)).
    #[inline]
    pub(crate) fn pattern_class(&self, use_vlabels: bool, use_elabels: bool) -> PatternClass {
        with_patterns(|uid, table| self.interned(uid, table, use_vlabels, use_elabels).1)
    }

    /// The canonical code of this subgraph's pattern — the paper's `ρ(S)`.
    /// Allocates the returned code; per-subgraph callers that only look
    /// the code up should borrow it through
    /// [`canonical_form`](Self::canonical_form) instead.
    pub fn pattern_code(&self, use_vlabels: bool, use_elabels: bool) -> CanonicalCode {
        class_code(self.pattern_class(use_vlabels, use_elabels))
    }

    /// Runs `f` on this subgraph's canonical form: code, permutation of the
    /// subgraph's vertex order onto canonical positions, and orbit
    /// representatives (FSM's minimum-image support needs all three). `f`
    /// runs inside the core's pattern table and must not ask this or
    /// another view for a pattern.
    pub fn canonical_form<R>(
        &self,
        use_vlabels: bool,
        use_elabels: bool,
        f: impl FnOnce(InternedForm<'_>) -> R,
    ) -> R {
        with_patterns(|_, table| {
            let id = self.intern(table, use_vlabels, use_elabels);
            f(table.form(id))
        })
    }
}

/// An owned result subgraph reported by the output operators, with ids
/// already translated to the **original** input graph when the fractoid ran
/// on a reduced view.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SubgraphData {
    /// Vertex ids (original graph).
    pub vertices: Vec<u32>,
    /// Edge ids (original graph).
    pub edges: Vec<u32>,
}

impl SubgraphData {
    /// Sorted copy (for set comparisons in tests).
    pub fn normalized(mut self) -> Self {
        self.vertices.sort_unstable();
        self.edges.sort_unstable();
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::aggregation::{Aggregator, AggregatorSpec};
    use fractal_enum::{SubgraphEnumerator, VertexInducedEnumerator};
    use fractal_graph::builder::unlabeled_from_edges;
    use fractal_pattern::canon::canonical_code;
    use std::collections::HashMap;

    /// Calls `f` on every vertex-induced subgraph of `depth` vertices that
    /// extends `sg`, on the calling thread (so the thread's pattern table
    /// is the one under test).
    pub(crate) fn for_each_leaf(
        g: &Graph,
        sg: &mut Subgraph,
        depth: usize,
        f: &mut dyn FnMut(&SubgraphView<'_>),
    ) {
        if sg.num_vertices() == depth {
            return f(&SubgraphView {
                graph: g,
                subgraph: sg,
            });
        }
        let mut en = VertexInducedEnumerator::new();
        let mut exts = Vec::new();
        en.compute_extensions(g, sg, &mut exts);
        for w in exts {
            en.extend(g, sg, w);
            for_each_leaf(g, sg, depth, f);
            en.retract(g, sg);
        }
    }

    #[test]
    fn census_canonicalises_once_per_distinct_quick_pattern() {
        let g = fractal_graph::gen::mico_like(60, 1, 3);
        let stats = || PATTERNS.with(|p| (p.borrow().table.stats(), p.borrow().table.len()));
        let ((hits0, misses0), len0) = stats();
        let spec = Aggregator::pattern_count("motifs", false, false);
        let (mut staged, mut durable) = (spec.new_shard(), spec.new_shard());
        let mut want: HashMap<CanonicalCode, u64> = HashMap::new();
        let mut leaves = 0u64;
        // One unit per root vertex, committed like the engine commits it.
        for root in 0..g.num_vertices() as u32 {
            let mut sg = Subgraph::new(&g);
            sg.push_vertex_induced(&g, root, sg.adjacency_mask(&g, root));
            for_each_leaf(&g, &mut sg, 4, &mut |view| {
                leaves += 1;
                staged.accumulate(view);
                *want
                    .entry(canonical_code(&view.pattern(false, false)))
                    .or_insert(0) += 1;
            });
            staged.drain_into(&mut *durable);
        }
        let ((hits, misses), len) = stats();
        let (hits, misses, entries) = (hits - hits0, misses - misses0, (len - len0) as u64);
        assert!(
            leaves > 1000 && want.len() == 6,
            "{leaves} leaves, {} motifs",
            want.len()
        );
        assert_eq!(
            misses, entries,
            "one canonical_form per distinct quick pattern"
        );
        assert_eq!(hits, leaves - misses);
        assert!(entries < 64, "{entries} quick patterns for six 4-motifs");
        assert_eq!(Aggregator::<CanonicalCode, u64>::take_map(durable), want);
    }

    #[test]
    fn canonical_form_matches_uncached_canonicaliser() {
        let g = fractal_graph::gen::mico_like(40, 3, 11);
        let mut sg = Subgraph::new(&g);
        for_each_leaf(&g, &mut sg, 3, &mut |view| {
            let want = fractal_pattern::canon::canonical_form(&view.pattern(true, true));
            assert_eq!(view.pattern_code(true, true), want.code);
            view.canonical_form(true, true, |form| {
                assert_eq!(*form.code, want.code);
                assert_eq!(form.perm, &want.perm[..]);
                assert_eq!(form.orbit_reps.len(), 3);
            });
        });
    }

    #[test]
    #[should_panic(expected = "did not intern it")]
    fn class_from_another_core_is_refused() {
        let g = unlabeled_from_edges(2, &[(0, 1)]);
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        let class = std::thread::scope(|s| {
            s.spawn(|| {
                SubgraphView {
                    graph: &g,
                    subgraph: &sg,
                }
                .pattern_class(false, false)
            })
            .join()
            .unwrap()
        });
        class_code(class);
    }

    #[test]
    fn view_accessors_and_clique_check() {
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        sg.push_vertex_induced(&g, 1, sg.adjacency_mask(&g, 1));
        sg.push_vertex_induced(&g, 2, sg.adjacency_mask(&g, 2));
        let view = SubgraphView {
            graph: &g,
            subgraph: &sg,
        };
        assert_eq!(view.num_vertices(), 3);
        assert!(view.is_clique());
        assert_eq!(view.last_level_edge_count(), 2);
        assert_eq!(view.pattern_code(false, false).num_vertices(), 3);
    }

    #[test]
    fn normalized_sorts() {
        let d = SubgraphData {
            vertices: vec![3, 1],
            edges: vec![5, 2],
        }
        .normalized();
        assert_eq!(d.vertices, vec![1, 3]);
        assert_eq!(d.edges, vec![2, 5]);
    }
}
