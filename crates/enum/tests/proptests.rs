//! Property tests: enumeration strategies vs brute-force oracles on random
//! graphs.

use fractal_enum::canonical::{canonical_edge_extension, canonical_vertex_extension};
use fractal_enum::enumerator::{
    vertex_word_parts, EdgeInducedEnumerator, PatternEnumerator, SubgraphEnumerator,
    VertexInducedEnumerator,
};
use fractal_enum::{KClistEnumerator, Subgraph};
use fractal_graph::{Graph, GraphBuilder, Label, VertexId};
use fractal_pattern::canon::{canonical_form, PatternTable};
use fractal_pattern::decompose::connected_shapes;
use fractal_pattern::exec::count_all_roots;
use fractal_pattern::planner::{PlanKind, PlanNode};
use fractal_pattern::{
    CountingPlan, ExplorationPlan, GraphStats, Pattern, RootedPattern, SymmetryConditions,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..16, 0u64..1000).prop_map(|(n, seed)| {
        // Density high enough to create triangles regularly.
        fractal_graph::gen::erdos_renyi(n, n * 2, 2, seed)
    })
}

/// A random graph with three vertex labels and three edge labels.
fn arb_labeled_graph() -> impl Strategy<Value = Graph> {
    (4usize..14, 0u64..1000).prop_map(|(n, seed)| {
        let topology = fractal_graph::gen::erdos_renyi(n, n * 2, 1, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..3)).collect();
        let edges: Vec<(u32, u32, u32)> = topology
            .edges()
            .map(|e| {
                let (u, v) = topology.edge_endpoints(e);
                (u.raw(), v.raw(), rng.gen_range(0u32..3))
            })
            .collect();
        fractal_graph::builder::graph_from_edges(&labels, &edges)
    })
}

/// Every label setting: the table's form of the live subgraph must be the
/// uncached canonical form of the `Pattern` built the slow way.
fn check_interned_form(table: &mut PatternTable, g: &Graph, sg: &Subgraph) -> Result<(), String> {
    for (vl, el) in [(false, false), (true, false), (false, true), (true, true)] {
        let want = canonical_form(&sg.pattern(g, vl, el));
        let id = table.intern(|q| sg.quick_pattern(g, vl, el, q));
        let got = table.form(id);
        if *got.code != want.code || got.perm != &want.perm[..] {
            return Err(format!(
                "labels ({vl}, {el}) on {:?}: table says {} {:?}, canonicaliser {} {:?}",
                sg.snapshot(),
                got.code,
                got.perm,
                want.code,
                want.perm
            ));
        }
    }
    Ok(())
}

/// A seeded random walk of `extend` / `retract` / `rebuild` over one
/// enumerator, checking the interned form after every move.
fn walk_and_check(
    g: &Graph,
    fresh: &dyn Fn() -> Box<dyn SubgraphEnumerator>,
    max_depth: usize,
    seed: u64,
    table: &mut PatternTable,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut en = fresh();
    let mut sg = Subgraph::new(g);
    let mut words: Vec<u64> = Vec::new();
    let mut exts = Vec::new();
    for _ in 0..60 {
        match rng.gen_range(0u32..10) {
            0..=5 if words.len() < max_depth => {
                en.compute_extensions(g, &sg, &mut exts);
                if exts.is_empty() {
                    continue;
                }
                let w = exts[rng.gen_range(0..exts.len())];
                en.extend(g, &mut sg, w);
                words.push(w);
            }
            6..=8 if !words.is_empty() => {
                en.retract(g, &mut sg);
                words.pop();
            }
            _ => {
                // A thief's view: fresh enumerator, fresh or reused subgraph.
                en = fresh();
                if rng.gen_bool(0.5) {
                    sg = Subgraph::new(g);
                }
                en.rebuild(g, &mut sg, &words);
            }
        }
        check_interned_form(table, g, &sg)?;
    }
    Ok(())
}

/// Every label setting, every subgraph `depth` more words reach from `sg`,
/// every extension on the way: the id the trie gives for (parent's id, the tip's level)
/// is the id the whole key of the materialised child interns to, and the
/// tip's new vertex is what `extend` appends. Returns how many children
/// were named.
fn check_children_named_from_parents(
    table: &mut PatternTable,
    g: &Graph,
    en: &mut dyn SubgraphEnumerator,
    sg: &mut Subgraph,
    depth: usize,
) -> Result<u64, String> {
    const FLAGS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];
    let mut named = 0;
    let mut exts = Vec::new();
    en.compute_extensions(g, sg, &mut exts);
    for w in exts {
        let tip = if sg.is_empty() {
            None
        } else {
            en.tip(g, sg, w)
        };
        let parents = FLAGS.map(|(vl, el)| table.intern(|q| sg.quick_pattern(g, vl, el, q)));
        let before = sg.vertices().to_vec();
        en.extend(g, sg, w);
        if let Some(tip) = tip {
            let mut want = before;
            want.extend(tip.new_vertex());
            if sg.vertices() != want {
                return Err(format!(
                    "{tip:?} names {want:?}, extend built {:?}",
                    sg.vertices()
                ));
            }
            for ((vl, el), parent) in FLAGS.into_iter().zip(parents) {
                let whole = table.intern(|q| sg.quick_pattern(g, vl, el, q));
                match tip.level(g, vl, el) {
                    Some(level) => {
                        let child = table.child(parent, level);
                        if child != whole {
                            return Err(format!(
                                "labels ({vl}, {el}) on {:?}: {level:?} of parent {parent} gives \
                                 {child}, the whole key {whole}",
                                sg.snapshot()
                            ));
                        }
                        named += 1;
                    }
                    // Only a vertex tip asked for edge labels may decline.
                    None if el && matches!(tip, fractal_enum::Tip::Vertex { .. }) => {}
                    None => return Err(format!("{tip:?} declined labels ({vl}, {el})")),
                }
            }
        } else if !want_no_tip(sg) {
            return Err(format!("no tip for word {w} onto {:?}", sg.snapshot()));
        }
        if depth > 1 {
            named += check_children_named_from_parents(table, g, en, sg, depth - 1)?;
        }
        en.retract(g, sg);
    }
    Ok(named)
}

/// Only a root word (one vertex, or one edge) has no parent to be named from.
fn want_no_tip(sg: &Subgraph) -> bool {
    sg.num_vertices() == 1 || sg.num_edges() == 1 && sg.num_vertices() == 2
}

/// Drives any enumerator to `depth`, returning all snapshots.
fn run(g: &Graph, mut en: Box<dyn SubgraphEnumerator>, depth: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    fn rec(
        g: &Graph,
        en: &mut Box<dyn SubgraphEnumerator>,
        sg: &mut Subgraph,
        depth: usize,
        out: &mut Vec<(Vec<u32>, Vec<u32>)>,
    ) {
        if depth == 0 {
            out.push(sg.snapshot());
            return;
        }
        let mut exts = Vec::new();
        en.compute_extensions(g, sg, &mut exts);
        for w in exts {
            en.extend(g, sg, w);
            rec(g, en, sg, depth - 1, out);
            en.retract(g, sg);
        }
    }
    let mut sg = Subgraph::new(g);
    let mut out = Vec::new();
    rec(g, &mut en, &mut sg, depth, &mut out);
    out
}

/// Brute force: connected induced k-vertex subgraphs as vertex sets.
fn oracle_connected_vertex_sets(g: &Graph, k: usize) -> BTreeSet<BTreeSet<u32>> {
    fn connected(g: &Graph, vs: &[u32]) -> bool {
        let mut seen = vec![vs[0]];
        let mut stack = vec![vs[0]];
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(VertexId(v)) {
                if vs.contains(&u) && !seen.contains(&u) {
                    seen.push(u);
                    stack.push(u);
                }
            }
        }
        seen.len() == vs.len()
    }
    let mut out = BTreeSet::new();
    let n = g.num_vertices() as u32;
    let mut subset: Vec<u32> = Vec::new();
    fn rec(
        g: &Graph,
        k: usize,
        start: u32,
        n: u32,
        subset: &mut Vec<u32>,
        out: &mut BTreeSet<BTreeSet<u32>>,
        connected: &dyn Fn(&Graph, &[u32]) -> bool,
    ) {
        if subset.len() == k {
            if connected(g, subset) {
                out.insert(subset.iter().copied().collect());
            }
            return;
        }
        for v in start..n {
            subset.push(v);
            rec(g, k, v + 1, n, subset, out, connected);
            subset.pop();
        }
    }
    rec(g, k, 0, n, &mut subset, &mut out, &connected);
    out
}

/// Drives `en` from `sg` to the plan's full depth, adding each level's
/// extension cost into `ec[level]`; returns the number of complete matches.
fn drive_counting(
    g: &Graph,
    en: &mut dyn SubgraphEnumerator,
    sg: &mut Subgraph,
    depth: usize,
    ec: &mut [u64],
) -> u64 {
    let level = sg.num_vertices();
    if level == depth {
        return 1;
    }
    let mut exts = Vec::new();
    ec[level] += en.compute_extensions(g, sg, &mut exts);
    let mut matches = 0;
    for w in exts {
        en.extend(g, sg, w);
        matches += drive_counting(g, en, sg, depth, ec);
        en.retract(g, sg);
    }
    matches
}

/// A connected matching order of `p`; `seed` picks the root and then one
/// of the attachable vertices at every step.
fn seeded_order(p: &Pattern, mut seed: u64) -> Vec<u8> {
    let n = p.num_vertices();
    let mut order = vec![(seed % n as u64) as u8];
    while order.len() < n {
        let open: Vec<u8> = (0..n as u8)
            .filter(|v| !order.contains(v))
            .filter(|&v| order.iter().any(|&u| p.adjacent(u as usize, v as usize)))
            .collect();
        seed = seed / 7 + 0x9e37;
        order.push(open[(seed % open.len() as u64) as usize]);
    }
    order
}

/// K4 minus one edge: two triangles sharing an edge.
fn diamond() -> Pattern {
    Pattern::unlabeled(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
}

/// The executor's count and extension cost on `plan` as a one-direct-node
/// counting plan with `stab_size` 1: every match, each once.
fn executor_count(g: &Graph, plan: ExplorationPlan) -> (i128, u64) {
    let pattern = plan.pattern().clone();
    let root = plan.vertex_at(0);
    let counting = CountingPlan {
        nodes: vec![PlanNode {
            rooted: RootedPattern::new(pattern.clone(), root),
            kind: PlanKind::Direct {
                plan: Box::new(plan),
                stab_size: 1,
            },
            est_cost: 0.0,
        }],
        outputs: Vec::new(),
        basis: None,
        k: pattern.num_vertices(),
        stats: GraphStats::of(g),
    };
    let (totals, _, ec) = count_all_roots(g, &counting);
    (totals[0], ec)
}

/// The first `d` positions of `plan` as a plan of their own: the pattern
/// induced on them, matched in the same order, under the conditions both
/// of whose vertices are among them. Its walk is `plan`'s walk cut at depth
/// `d`.
fn prefix_plan(plan: &ExplorationPlan, d: usize) -> ExplorationPlan {
    let order: Vec<u8> = (0..d).map(|pos| plan.vertex_at(pos)).collect();
    let pos_of = |v: u8| plan.position_of(v as usize);
    let less_than = plan
        .conditions()
        .less_than
        .iter()
        .filter(|&&(a, b)| (pos_of(a) as usize) < d && (pos_of(b) as usize) < d)
        .map(|&(a, b)| (pos_of(a), pos_of(b)))
        .collect();
    ExplorationPlan::with_order(
        &plan.pattern().induced_on(&order),
        (0..d as u8).collect(),
        SymmetryConditions { less_than },
    )
}

/// Walks `en` down `depth` words from the root, taking extension
/// `pick(len)` of the `len` at every level; returns the words taken (fewer
/// when the walk runs out of extensions).
fn descend(
    g: &Graph,
    en: &mut dyn SubgraphEnumerator,
    sg: &mut Subgraph,
    depth: usize,
    pick: fn(usize) -> usize,
) -> Vec<u64> {
    let mut words = Vec::new();
    let mut exts = Vec::new();
    while words.len() < depth {
        en.compute_extensions(g, sg, &mut exts);
        let Some(&w) = exts.get(pick(exts.len())) else {
            break;
        };
        en.extend(g, sg, w);
        words.push(w);
    }
    words
}

/// Every subgraph one more word reaches from `sg`, in word order.
fn completions(
    g: &Graph,
    en: &mut dyn SubgraphEnumerator,
    sg: &mut Subgraph,
) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut out = Vec::new();
    let mut exts = Vec::new();
    en.compute_extensions(g, sg, &mut exts);
    for w in exts {
        en.extend(g, sg, w);
        out.push(sg.snapshot());
        en.retract(g, sg);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Vertex-induced enumeration produces every connected induced
    /// subgraph exactly once.
    #[test]
    fn vertex_induced_complete_and_unique(g in arb_graph(), k in 2usize..5) {
        let subs = run(&g, Box::new(VertexInducedEnumerator::new()), k);
        let sets: Vec<BTreeSet<u32>> =
            subs.iter().map(|(vs, _)| vs.iter().copied().collect()).collect();
        let unique: BTreeSet<BTreeSet<u32>> = sets.iter().cloned().collect();
        prop_assert_eq!(unique.len(), sets.len(), "duplicate enumeration");
        prop_assert_eq!(unique, oracle_connected_vertex_sets(&g, k));
    }

    /// Edge-induced enumeration is unique and every result is connected
    /// with exactly k edges.
    #[test]
    fn edge_induced_unique(g in arb_graph(), k in 1usize..4) {
        let subs = run(&g, Box::new(EdgeInducedEnumerator::new()), k);
        let sets: Vec<BTreeSet<u32>> =
            subs.iter().map(|(_, es)| es.iter().copied().collect()).collect();
        let unique: BTreeSet<BTreeSet<u32>> = sets.iter().cloned().collect();
        prop_assert_eq!(unique.len(), sets.len(), "duplicate enumeration");
        for (_, es) in &subs {
            prop_assert_eq!(es.len(), k);
        }
    }

    /// Over random canonical edge prefixes, `compute_extensions` returns
    /// exactly "the union of the members' incident edges, minus the prefix,
    /// filtered by `canonical_edge_extension`, ascending" and counts one test
    /// per candidate. Half the walk's steps prefer a candidate whose two
    /// endpoints are both members, so prefixes with closed cycles (and
    /// candidates that would close one) are the common case, not the rare one.
    #[test]
    fn edge_extensions_equal_filtered_incident_union(g in arb_labeled_graph(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut en = EdgeInducedEnumerator::new();
        let mut sg = Subgraph::new(&g);
        let mut got = Vec::new();
        for _ in 0..7 {
            let tests = en.compute_extensions(&g, &sg, &mut got);
            let candidates: BTreeSet<u32> = if sg.num_edges() == 0 {
                g.edges().map(|e| e.raw()).collect()
            } else {
                sg.vertices()
                    .iter()
                    .flat_map(|&v| g.incident_edges(VertexId(v)).iter().copied())
                    .filter(|&e| !sg.has_edge(e))
                    .collect()
            };
            let want: Vec<u64> = candidates
                .iter()
                .filter(|&&e| canonical_edge_extension(&g, sg.edges(), e))
                .map(|&e| e as u64)
                .collect();
            prop_assert_eq!(tests, candidates.len() as u64, "tests after {:?}", sg.edges());
            prop_assert_eq!(&got, &want, "words after {:?}", sg.edges());
            let closing: Vec<u64> = got
                .iter()
                .copied()
                .filter(|&w| {
                    let (s, d) = g.edge_endpoints(fractal_graph::EdgeId(w as u32));
                    sg.has_vertex(s.raw()) && sg.has_vertex(d.raw())
                })
                .collect();
            let pool = if !closing.is_empty() && rng.gen_bool(0.5) { &closing } else { &got };
            if pool.is_empty() {
                break;
            }
            let w = pool[rng.gen_range(0..pool.len())];
            en.extend(&g, &mut sg, w);
        }
    }

    /// Over a random walk that extends, sometimes retracts and sometimes
    /// rebuilds onto an unrelated prefix without retracting (as a thief or
    /// an unwound unit leaves its core's enumerator), `compute_extensions`
    /// returns exactly "the union of the members' neighbourhoods, minus the
    /// members, filtered by `canonical_vertex_extension`", each word carries
    /// its vertex's adjacency mask, and the count is the size of that union
    /// minus the members.
    #[test]
    fn vertex_extensions_equal_filtered_neighbour_union(g in arb_graph(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut en = VertexInducedEnumerator::new();
        let mut sg = Subgraph::new(&g);
        let mut got = Vec::new();
        for _ in 0..12 {
            let tests = en.compute_extensions(&g, &sg, &mut got);
            let candidates: BTreeSet<u32> = if sg.num_vertices() == 0 {
                (0..g.num_vertices() as u32).collect()
            } else {
                sg.vertices()
                    .iter()
                    .flat_map(|&v| g.neighbors(VertexId(v)).iter().copied())
                    .filter(|&u| !sg.has_vertex(u))
                    .collect()
            };
            let want: BTreeSet<u32> = candidates
                .iter()
                .copied()
                .filter(|&u| canonical_vertex_extension(&g, sg.vertices(), u))
                .collect();
            let words: BTreeSet<u32> = got.iter().map(|&w| vertex_word_parts(w).0).collect();
            prop_assert_eq!(words.len(), got.len(), "duplicate words after {:?}", sg.vertices());
            prop_assert_eq!(&words, &want, "words after {:?}", sg.vertices());
            prop_assert_eq!(tests, candidates.len() as u64, "tests after {:?}", sg.vertices());
            if sg.num_vertices() > 0 {
                for &w in &got {
                    let (v, mask) = vertex_word_parts(w);
                    prop_assert_eq!(mask, sg.adjacency_mask(&g, v), "mask of {}", v);
                }
            }
            match rng.gen_range(0..6) {
                0 if sg.num_vertices() > 0 => en.retract(&g, &mut sg),
                1 => {
                    let mut other = VertexInducedEnumerator::new();
                    let mut osg = Subgraph::new(&g);
                    let picks: [fn(usize) -> usize; 3] =
                        [|_| 0, |len| len / 2, |len| len.saturating_sub(1)];
                    let pick = picks[rng.gen_range(0..picks.len())];
                    let words = descend(&g, &mut other, &mut osg, rng.gen_range(1usize..=4), pick);
                    en.rebuild(&g, &mut sg, &words);
                }
                _ => {
                    if got.is_empty() {
                        break;
                    }
                    let w = got[rng.gen_range(0..got.len())];
                    en.extend(&g, &mut sg, w);
                }
            }
        }
    }

    /// KClist lists exactly the k-cliques found by filtering the generic
    /// vertex-induced enumeration.
    #[test]
    fn kclist_agrees_with_generic(g in arb_graph(), k in 2usize..5) {
        let kclist = run(&g, Box::new(KClistEnumerator::new(&g)), k);
        let generic: Vec<_> = run(&g, Box::new(VertexInducedEnumerator::new()), k)
            .into_iter()
            .filter(|(_, es)| es.len() == k * (k - 1) / 2)
            .collect();
        prop_assert_eq!(kclist.len(), generic.len());
        let a: BTreeSet<BTreeSet<u32>> =
            kclist.iter().map(|(vs, _)| vs.iter().copied().collect()).collect();
        let b: BTreeSet<BTreeSet<u32>> =
            generic.iter().map(|(vs, _)| vs.iter().copied().collect()).collect();
        prop_assert_eq!(a, b);
    }

    /// Pattern-induced triangle matching agrees with clique filtering, and
    /// each triangle is matched exactly once.
    #[test]
    fn pattern_triangles_agree(g in arb_graph()) {
        let plan = Arc::new(ExplorationPlan::new(&Pattern::clique(3)));
        let matches = run(&g, Box::new(PatternEnumerator::new(plan, false, false)), 3);
        let sets: BTreeSet<BTreeSet<u32>> =
            matches.iter().map(|(vs, _)| vs.iter().copied().collect()).collect();
        prop_assert_eq!(sets.len(), matches.len(), "duplicate matches");
        let cliques: BTreeSet<BTreeSet<u32>> = run(&g, Box::new(VertexInducedEnumerator::new()), 3)
            .into_iter()
            .filter(|(_, es)| es.len() == 3)
            .map(|(vs, _)| vs.into_iter().collect())
            .collect();
        prop_assert_eq!(sets, cliques);
    }

    /// Pattern matching without symmetry breaking overcounts by exactly
    /// |Aut(P)| per match.
    #[test]
    fn symmetry_breaking_factor(g in arb_graph()) {
        let p = Pattern::clique(3);
        let with = run(
            &g,
            Box::new(PatternEnumerator::new(Arc::new(ExplorationPlan::new(&p)), false, false)),
            3,
        )
        .len();
        let without = run(
            &g,
            Box::new(PatternEnumerator::new(
                Arc::new(ExplorationPlan::without_symmetry(&p)),
                false,
                false,
            )),
            3,
        )
        .len();
        prop_assert_eq!(without, with * 6);
    }

    /// Stolen-prefix rebuild: continuing enumeration from a rebuilt state
    /// yields the same completions as continuing in place, for
    /// vertex-induced growth and for pattern-induced growth (whose marks
    /// are state a rebuild must re-derive). The thief's enumerator was
    /// abandoned mid-depth without retracting first, as an unwound unit
    /// leaves its core's enumerator.
    #[test]
    fn rebuild_equivalence(g in arb_graph(), depth in 1usize..=3) {
        let queries = [Pattern::cycle(4), diamond(), Pattern::clique(4)];
        let mut fresh: Vec<Box<dyn Fn() -> Box<dyn SubgraphEnumerator>>> =
            vec![Box::new(|| Box::new(VertexInducedEnumerator::new()) as Box<dyn SubgraphEnumerator>)];
        for q in &queries {
            let plan = Arc::new(ExplorationPlan::new(q));
            fresh.push(Box::new(move || {
                Box::new(PatternEnumerator::new(plan.clone(), false, false)) as Box<dyn SubgraphEnumerator>
            }));
        }
        for fresh in &fresh {
            let mut en = fresh();
            let mut sg = Subgraph::new(&g);
            let prefix = descend(&g, &mut *en, &mut sg, depth, |len| len / 2);
            if prefix.len() == en.max_words() {
                continue;
            }
            let in_place = completions(&g, &mut *en, &mut sg);

            // Thief side: a fresh enumerator, and one abandoned part-way
            // down another branch, with its marks still set.
            let mut en2 = fresh();
            let mut sg2 = Subgraph::new(&g);
            en2.rebuild(&g, &mut sg2, &prefix);
            prop_assert_eq!(&completions(&g, &mut *en2, &mut sg2), &in_place);
            let mut abandoned = fresh();
            let mut sg3 = Subgraph::new(&g);
            let deep = (abandoned.max_words() - 1).min(3);
            descend(&g, &mut *abandoned, &mut sg3, deep, |len| len.saturating_sub(1) / 3);
            abandoned.rebuild(&g, &mut sg3, &prefix);
            prop_assert_eq!(&completions(&g, &mut *abandoned, &mut sg3), &in_place);
        }
    }

    /// The pattern-induced enumerator and the counting-plan executor take
    /// one candidate step: for every connected shape of 2..=5 vertices
    /// matched in a random connected order, they count the same matches,
    /// and every level below the root has the same extension cost (the
    /// executor's, read off the plan cut at each depth).
    #[test]
    fn pattern_enumerator_and_plan_executor_agree(g in arb_graph(), order_seed in any::<u64>()) {
        for p in (2..=5).flat_map(connected_shapes) {
            let order = seeded_order(&p, order_seed);
            let plan = ExplorationPlan::with_order(&p, order.clone(), SymmetryConditions::for_pattern(&p));
            let k = plan.len();
            let mut en = PatternEnumerator::new(Arc::new(plan.clone()), false, false);
            let mut ec = vec![0u64; k];
            let matches = drive_counting(&g, &mut en, &mut Subgraph::new(&g), k, &mut ec);
            prop_assert_eq!(ec[0], g.num_vertices() as u64, "the root level tests every vertex");
            prop_assert_eq!(
                executor_count(&g, plan.clone()).0,
                matches as i128,
                "shape={} order={:?}", p, order
            );
            for d in 2..=k {
                let (_, exec_ec) = executor_count(&g, prefix_plan(&plan, d));
                prop_assert_eq!(
                    exec_ec,
                    ec[1..d].iter().sum::<u64>(),
                    "shape={} order={:?} levels 1..{}", p, order, d
                );
            }
        }
    }

    /// The quick pattern read off a live subgraph names the same pattern
    /// `Subgraph::pattern` builds: over random push/pop/rebuild sequences in
    /// all three growth modes, with labels on and off, the table's code and
    /// permutation equal the uncached canonicaliser's. One table serves the
    /// whole case, so hits are checked as much as misses.
    #[test]
    fn interned_form_matches_canonical_form(g in arb_labeled_graph(), seed in 0u64..1000) {
        let mut table = PatternTable::new();
        let vertex = || Box::new(VertexInducedEnumerator::new()) as Box<dyn SubgraphEnumerator>;
        let edge = || Box::new(EdgeInducedEnumerator::new()) as Box<dyn SubgraphEnumerator>;
        let queries = [Pattern::cycle(4), Pattern::star(3), Pattern::clique(3), Pattern::path(4)];
        let plan = Arc::new(ExplorationPlan::new(&queries[seed as usize % queries.len()]));
        let matched =
            || Box::new(PatternEnumerator::new(plan.clone(), false, false)) as Box<dyn SubgraphEnumerator>;
        for (fresh, depth) in [
            (&vertex as &dyn Fn() -> Box<dyn SubgraphEnumerator>, 5),
            (&edge, 5),
            (&matched, 4),
        ] {
            if let Err(e) = walk_and_check(&g, fresh, depth, seed, &mut table) {
                prop_assert!(false, "{}", e);
            }
        }
        let (hits, misses) = table.stats();
        prop_assert_eq!(misses as usize, table.len());
        prop_assert!(hits > 0);
    }

    /// A subgraph's quick pattern is its parent's plus what the extension's
    /// tip adds: over random labeled graphs, both tipped growth modes and
    /// depths 2..=5, `PatternTable::child` agrees with whole-key `intern` for
    /// every parent and every extension, and the table still canonicalises
    /// each distinct quick pattern once.
    #[test]
    fn children_named_from_parents_match_whole_keys(g in arb_labeled_graph(), depth in 2usize..=5) {
        let mut table = PatternTable::new();
        for mut en in [
            Box::new(VertexInducedEnumerator::new()) as Box<dyn SubgraphEnumerator>,
            Box::new(EdgeInducedEnumerator::new()),
        ] {
            let mut sg = Subgraph::new(&g);
            match check_children_named_from_parents(&mut table, &g, &mut *en, &mut sg, depth) {
                Ok(named) => prop_assert!(named > 0 || g.num_edges() == 0),
                Err(e) => prop_assert!(false, "{}", e),
            }
        }
        let (_, misses) = table.stats();
        prop_assert_eq!(misses as usize, table.len());
    }

    /// Push/pop round trips leave the subgraph in its prior state for all
    /// three growth modes.
    #[test]
    fn push_pop_roundtrip(g in arb_graph()) {
        let mut sg = Subgraph::new(&g);
        if g.num_edges() == 0 { return Ok(()); }
        sg.push_edge(&g, 0);
        let snap = sg.snapshot();
        if g.num_edges() > 1 {
            sg.push_edge(&g, 1);
            sg.pop_edge();
        }
        prop_assert_eq!(sg.snapshot(), snap);
    }
}

/// Labeled pattern matching against an oracle that checks all injective
/// assignments.
#[test]
fn labeled_pattern_matching_oracle() {
    // Build a labeled graph and a labeled path query; compare against a
    // brute-force matcher.
    let mut b = GraphBuilder::new();
    for l in [0u32, 1, 0, 1, 0] {
        b.add_vertex(Label(l));
    }
    for &(u, v, l) in &[
        (0u32, 1u32, 0u32),
        (1, 2, 1),
        (2, 3, 0),
        (3, 4, 1),
        (0, 4, 0),
        (1, 3, 0),
    ] {
        b.add_edge(VertexId(u), VertexId(v), Label(l)).unwrap();
    }
    let g = b.build();
    // Query: path 0 -1- 1 with vertex labels [0, 1] and edge label 0.
    let q = Pattern::new(vec![0, 1], vec![(0, 1, 0)]);
    let plan = Arc::new(ExplorationPlan::new(&q));
    let matches = run(&g, Box::new(PatternEnumerator::new(plan, true, true)), 2);
    // Oracle: ordered pairs (a, b) with labels (0, 1), adjacent with edge
    // label 0 — symmetry breaking on an asymmetric (labeled) pattern keeps
    // all distinct assignments, but pattern vertices are distinguishable so
    // each edge maps once.
    let mut expect = 0;
    for a in g.vertices() {
        for bb in g.vertices() {
            if a == bb {
                continue;
            }
            if g.vertex_label(a) == Label(0) && g.vertex_label(bb) == Label(1) {
                if let Some(e) = g.edge_between(a, bb) {
                    if g.edge_label(e) == Label(0) {
                        expect += 1;
                    }
                }
            }
        }
    }
    assert_eq!(matches.len(), expect);
}
