//! Property tests for the execution engine: random workflows on random
//! graphs, validated against a sequential oracle that mirrors the
//! documented semantics primitive by primitive.

use fractal_core::prelude::*;
use fractal_core::Aggregator;
use fractal_enum::canonical::canonical_vertex_extension;
use fractal_graph::{Graph, VertexId};
use fractal_pattern::CanonicalCode;
use fractal_runtime::{ClusterConfig, WsMode};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Oracle: sequential DFS over [expand, filter]* with the same canonical
/// rule and filter semantics as the engine.
fn oracle_count(g: &Graph, levels: &[Option<u32>]) -> u64 {
    fn rec(
        g: &Graph,
        levels: &[Option<u32>],
        prefix: &mut Vec<u32>,
        edge_count: &mut usize,
    ) -> u64 {
        let depth = prefix.len();
        if depth == levels.len() {
            return 1;
        }
        let cands: Vec<u32> = if prefix.is_empty() {
            (0..g.num_vertices() as u32).collect()
        } else {
            let mut c: Vec<u32> = prefix
                .iter()
                .flat_map(|&v| g.neighbors(VertexId(v)).iter().copied())
                .filter(|u| !prefix.contains(u))
                .collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        let mut total = 0;
        for u in cands {
            if !canonical_vertex_extension(g, prefix, u) {
                continue;
            }
            // Edges the vertex-induced push would add.
            let added = prefix
                .iter()
                .filter(|&&v| g.are_adjacent(VertexId(v), VertexId(u)))
                .count();
            // The level's filter: min edge-added threshold (None = none).
            if let Some(min_added) = levels[depth] {
                if (added as u32) < min_added && depth > 0 {
                    continue;
                }
            }
            prefix.push(u);
            *edge_count += added;
            total += rec(g, levels, prefix, edge_count);
            *edge_count -= added;
            prefix.pop();
        }
        total
    }
    let mut prefix = Vec::new();
    let mut ec = 0;
    rec(g, levels, &mut prefix, &mut ec)
}

/// Engine: the same workflow built from fractoid operators.
fn engine_count(g: &Graph, levels: &[Option<u32>], cfg: ClusterConfig) -> u64 {
    let fc = FractalContext::new(cfg);
    let fg = fc.fractal_graph(g.clone());
    let mut f = fg.vfractoid();
    for (depth, &min_added) in levels.iter().enumerate() {
        f = f.expand(1);
        if let Some(min_added) = min_added {
            f = f.filter(move |s| depth == 0 || s.last_level_edge_count() as u32 >= min_added);
        }
    }
    f.count()
}

/// Everything a pattern-keyed fold is handed for one subgraph: its vertices
/// in insertion order, and the permutation and orbit representatives of its
/// canonical form.
type Folded = (Vec<u32>, Vec<u8>, Vec<u8>);

/// Counts `fractoid`'s subgraphs into an aggregation that records, per
/// canonical pattern, every [`Folded`] its fold was handed; returns that map,
/// the aggregation's `accumulated()`, the count and the extension cost.
fn folded_by_pattern(
    fractoid: Fractoid,
    use_vlabels: bool,
    use_elabels: bool,
) -> (HashMap<CanonicalCode, Vec<Folded>>, u64, u64, u64) {
    let spec = Aggregator::by_pattern(
        "folded",
        use_vlabels,
        use_elabels,
        |_| Vec::new(),
        |all: &mut Vec<Folded>, leaves, form| {
            let (parent, added) = leaves.vertices();
            assert_eq!(leaves.len(), added.len().max(1));
            for v in added
                .iter()
                .map(|&v| Some(v))
                .chain(added.is_empty().then_some(None))
            {
                all.push((
                    parent.iter().copied().chain(v).collect(),
                    form.perm.to_vec(),
                    form.orbit_reps.to_vec(),
                ))
            }
        },
        |into: &mut Vec<Folded>, from: &mut Vec<Folded>| into.append(from),
    );
    let f = fractoid.aggregate_spec(Arc::new(spec));
    let (count, report) = f.count_with_report();
    let result = f.aggregation_result("folded");
    let mut map = result.map::<CanonicalCode, Vec<Folded>>().clone();
    map.values_mut().for_each(|all| all.sort());
    (map, result.accumulated(), count, report.total_ec())
}

/// `erdos_renyi(n, 2n)` with three vertex labels and three edge labels.
fn labeled_graph(n: usize, seed: u64) -> Graph {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A deepest level that is only named is never materialised: each leaf
    /// is folded, in a group of its parent's leaves that add one level,
    /// under the class its tip grows out of its parent's, with the parent's
    /// vertex list plus the tip's vertex. A pass-all filter after the
    /// deepest `expand` makes the engine `extend` every leaf and name it by
    /// its whole key instead. Both growth modes, depths 2..=5, every label
    /// setting, under a counting output mode: the folds must be handed the
    /// same class, permutation, orbit representatives and vertex list for
    /// every leaf, and count, `accumulated` and extension cost must agree.
    #[test]
    fn named_leaves_fold_what_materialised_leaves_fold(
        n in 5usize..12,
        seed in 0u64..500,
        depth in 2usize..=5,
        flags in 0usize..4,
    ) {
        let (use_vlabels, use_elabels) = (flags & 1 == 1, flags & 2 == 2);
        let fc = FractalContext::new(ClusterConfig::local(1, 2));
        let fg = fc.fractal_graph(labeled_graph(n, seed));
        for grow in [FractalGraph::vfractoid, FractalGraph::efractoid] {
            let named = folded_by_pattern(grow(&fg).expand(depth), use_vlabels, use_elabels);
            let materialised = folded_by_pattern(
                grow(&fg).expand(depth).filter(|_| true),
                use_vlabels,
                use_elabels,
            );
            prop_assert_eq!(named.1, named.2);
            prop_assert_eq!(named, materialised);
        }
    }

    /// A census of pattern counts is folded a group of leaves at a time; a
    /// pass-all filter after the deepest `expand` has every leaf
    /// materialised. Both growth modes, every label setting: both give one
    /// census and extension cost, and fold what they count.
    #[test]
    fn folded_census_equals_materialised(
        n in 5usize..14,
        seed in 0u64..500,
        k in 3usize..=5,
        flags in 0usize..4,
    ) {
        let (use_vlabels, use_elabels) = (flags & 1 == 1, flags & 2 == 2);
        let g = labeled_graph(n, seed);
        for cfg in [ClusterConfig::local(1, 1), ClusterConfig::local(2, 2)] {
            let fg = FractalContext::new(cfg).fractal_graph(g.clone());
            let census = |f: Fractoid| {
                let count = Aggregator::pattern_count("c", use_vlabels, use_elabels);
                let f = f.aggregate_spec(Arc::new(count));
                let ((count, report), result) = (f.count_with_report(), f.aggregation_result("c"));
                (result.map::<CanonicalCode, u64>().clone(), result.accumulated(), count, report.total_ec())
            };
            for grow in [FractalGraph::vfractoid, FractalGraph::efractoid] {
                let folded = census(grow(&fg).expand(k));
                let materialised = census(grow(&fg).expand(k).filter(|_| true));
                prop_assert_eq!(folded.1, folded.2);
                prop_assert_eq!(folded, materialised);
            }
        }
    }

    /// Random [expand, filter?]* workflows: engine == oracle across
    /// cluster shapes and stealing modes.
    #[test]
    fn random_workflows_match_oracle(
        n in 6usize..20,
        seed in 0u64..500,
        levels in proptest::collection::vec(proptest::option::of(0u32..3), 2..5),
    ) {
        let g = fractal_graph::gen::erdos_renyi(n, n * 2, 2, seed);
        let expect = oracle_count(&g, &levels);
        for cfg in [
            ClusterConfig::single_thread(),
            ClusterConfig::local(2, 2).with_ws(WsMode::Both).with_latency_us(1),
        ] {
            let got = engine_count(&g, &levels, cfg);
            prop_assert_eq!(got, expect, "levels {:?}", levels);
        }
    }

    /// Aggregation totals equal plain counts: summing a unit-valued
    /// aggregation over any key function must reproduce count().
    #[test]
    fn aggregation_total_equals_count(n in 6usize..18, seed in 0u64..300, k in 2usize..4) {
        let g = fractal_graph::gen::erdos_renyi(n, n * 2, 2, seed);
        let fc = FractalContext::new(ClusterConfig::local(1, 2));
        let fg = fc.fractal_graph(g);
        let count = fg.vfractoid().expand(k).count();
        let agg = fg
            .vfractoid()
            .expand(k)
            .aggregate("x", |s| s.num_edges() % 3, |_| 1u64, |a, v| *a += v)
            .aggregation::<usize, u64>("x");
        let total: u64 = agg.values().sum();
        prop_assert_eq!(total, count);
    }

    /// Participation masks contain exactly the union of result subgraphs.
    #[test]
    fn participation_is_exact_union(n in 6usize..16, seed in 0u64..200) {
        let g = fractal_graph::gen::erdos_renyi(n, n * 2, 1, seed);
        let fc = FractalContext::new(ClusterConfig::local(1, 2));
        let fg = fc.fractal_graph(g);
        let fr = fg.vfractoid().expand(3).filter(|s| s.is_clique());
        let subs = fr.subgraphs();
        let report = fr.execute_tracking_participation();
        let p = report.participation.unwrap();
        let mut vexpect = std::collections::BTreeSet::new();
        let mut eexpect = std::collections::BTreeSet::new();
        for s in &subs {
            vexpect.extend(s.vertices.iter().copied());
            eexpect.extend(s.edges.iter().copied());
        }
        let vgot: std::collections::BTreeSet<u32> =
            p.vertices.iter_ones().map(|i| i as u32).collect();
        let egot: std::collections::BTreeSet<u32> =
            p.edges.iter_ones().map(|i| i as u32).collect();
        prop_assert_eq!(vgot, vexpect);
        prop_assert_eq!(egot, eexpect);
    }
}
