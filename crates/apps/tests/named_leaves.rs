//! Engine parity for the deepest-level rule (DESIGN.md §2.5). A step whose
//! tail after the deepest `expand` only names the subgraph (live pattern-keyed
//! aggregations, output mode none or count) never materialises its leaves:
//! each is folded in under the pattern its enumerator's tip grows out of the
//! parent's. Every other tail materialises them as before. Both must be
//! invisible in the results: each shape below is held against the
//! single-thread baselines of `fractal-baselines` (which build a `Pattern`
//! per subgraph and share no table, trie or tip with the engine), on one
//! core and with stealing.

use fractal_apps::fsm::{self, Domain, DomainSupport};
use fractal_apps::motifs;
use fractal_baselines::single_thread::{grami_fsm, gtries_motifs, gtries_motifs_labeled};
use fractal_core::{Aggregator, FractalContext, FractalGraph, SubgraphView};
use fractal_enum::Subgraph;
use fractal_graph::{gen, EdgeId, Graph};
use fractal_pattern::canon::canonical_code;
use fractal_pattern::{CanonicalCode, Pattern};
use fractal_runtime::{ClusterConfig, FaultConfig, WsMode};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn shapes() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::local(1, 1).with_ws(WsMode::Disabled),
        ClusterConfig::local(2, 2),
    ]
}

/// Scale-free, four vertex labels, three edge labels: label flags matter.
fn labeled_graph() -> Graph {
    gen::barabasi_albert(90, 3, 4, 3, 11)
}

fn fg_of(g: &Graph, cfg: ClusterConfig) -> FractalGraph {
    FractalContext::new(cfg).fractal_graph(g.clone())
}

fn counting(
    name: &str,
    use_vlabels: bool,
    use_elabels: bool,
) -> Arc<Aggregator<CanonicalCode, u64>> {
    Arc::new(Aggregator::pattern_count(name, use_vlabels, use_elabels))
}

#[test]
fn named_motif_census_matches_gtries() {
    let g = gen::mico_like(160, 4, 7);
    for k in [3, 4] {
        let want = gtries_motifs(&g, k);
        assert!(want.len() > 1 && want.values().sum::<u64>() > 1000);
        for cfg in shapes() {
            let got = motifs::motifs(&fg_of(&g, cfg.clone()), k);
            assert_eq!(got, want, "k={k} on {cfg:?}");
        }
    }
}

#[test]
fn named_fsm_rounds_match_grami() {
    // Rounds 2 and 3 name every embedding from its parent; round 1's single
    // edges are unit roots and are pushed.
    let g = gen::patents_like(110, 3, 13);
    let want: HashMap<CanonicalCode, u64> = grami_fsm(&g, 9, 3).into_iter().collect();
    assert!(
        want.keys().any(|c| c.num_vertices() >= 3),
        "no round past the first"
    );
    for cfg in shapes() {
        let result = fsm::fsm(&fg_of(&g, cfg.clone()), 9, 3);
        assert_eq!(result.reports.len(), 3, "three rounds on {cfg:?}");
        assert_eq!(fsm::frequent_map(&result), want, "{cfg:?}");
    }
}

#[test]
fn two_named_aggregations_keep_their_own_label_flags() {
    let g = labeled_graph();
    let unlabeled = gtries_motifs(&g, 3);
    let by_vertex_labels = gtries_motifs_labeled(&g, 3, (true, false));
    assert!(gtries_motifs_labeled(&g, 3, (true, true)).len() > by_vertex_labels.len());
    for cfg in shapes() {
        let fg = fg_of(&g, cfg);
        // Vertex labels only: both levels can be read off a vertex tip. With
        // edge labels the vertex tip declines for the second aggregation, and
        // the leaf is materialised for both.
        for (vl, el) in [(true, false), (true, true)] {
            let labeled = gtries_motifs_labeled(&g, 3, (vl, el));
            assert!(labeled.len() > unlabeled.len());
            let f = fg
                .vfractoid()
                .expand(3)
                .aggregate_spec(counting("plain", false, false))
                .aggregate_spec(counting("labeled", vl, el));
            assert_eq!(f.aggregation::<CanonicalCode, u64>("plain"), unlabeled);
            assert_eq!(f.aggregation::<CanonicalCode, u64>("labeled"), labeled);
        }
    }
}

#[test]
fn count_and_named_aggregation_share_one_pass() {
    let g = gen::mico_like(120, 3, 5);
    let want = gtries_motifs(&g, 4);
    for cfg in shapes() {
        let fg = fg_of(&g, cfg);
        let f = motifs::motifs_fractoid(&fg, 4, false);
        let (count, report) = f.count_with_report();
        assert_eq!(count, want.values().sum::<u64>());
        assert_eq!(report.num_steps(), 1);
        // The counting pass computed the census; this reads it from the store.
        let result = f.aggregation_result("motifs");
        assert_eq!(result.accumulated(), count);
        assert_eq!(*result.map::<CanonicalCode, u64>(), want);
    }
}

#[test]
fn tails_that_read_the_subgraph_are_materialised_and_agree() {
    let g = gen::mico_like(100, 4, 17);
    let want = gtries_motifs(&g, 3);
    let total: u64 = want.values().sum();
    for cfg in shapes() {
        let fg = fg_of(&g, cfg);
        // A filter after the deepest expand.
        let triangles_only = fg
            .vfractoid()
            .expand(3)
            .filter(|s| s.is_clique())
            .aggregate_spec(counting("motifs", false, false))
            .aggregation::<CanonicalCode, u64>("motifs");
        let triangle = canonical_code(&Pattern::clique(3));
        assert_eq!(triangles_only.len(), 1);
        assert_eq!(triangles_only[&triangle], want[&triangle]);
        // Collect: the subgraphs come back whole, the census beside them.
        let f = motifs::motifs_fractoid(&fg, 3, false);
        let subgraphs = f.subgraphs();
        assert_eq!(subgraphs.len() as u64, total);
        for s in &subgraphs {
            let induced = Pattern::from_vertex_induced(&g, &s.vertices, false, false);
            assert_eq!(s.edges.len(), induced.num_edges(), "{s:?}");
        }
        assert_eq!(f.aggregation::<CanonicalCode, u64>("motifs"), want);
    }
}

#[test]
fn labeled_motifs_are_materialised_for_their_edge_labels() {
    // Table 2's -ML census: a vertex tip knows its edges but not their ids,
    // so not their labels either.
    let g = labeled_graph();
    let want = gtries_motifs_labeled(&g, 3, (true, true));
    assert!(want.len() > gtries_motifs_labeled(&g, 3, (true, false)).len());
    for cfg in shapes() {
        assert_eq!(motifs::motifs_labeled(&fg_of(&g, cfg), 3), want);
    }
}

#[test]
fn fsm_with_reduction_tracks_participation_and_matches_grami() {
    // TrackOnly reads every result subgraph's vertices and edges: the
    // deepest level is materialised.
    let g = gen::patents_like(110, 3, 13);
    let want: HashMap<CanonicalCode, u64> = grami_fsm(&g, 9, 3).into_iter().collect();
    for cfg in shapes() {
        let result = fsm::fsm_with_reduction(&fg_of(&g, cfg.clone()), 9, 3);
        assert_eq!(fsm::frequent_map(&result), want, "{cfg:?}");
    }
}

/// Per pattern of `edges` edges whose support reaches `min_support`, its
/// domains built from every embedding materialised on its own: each
/// connected set of `edges` edges, its canonical form, and each vertex put
/// at its canonical position's orbit representative.
fn domains_by_embedding(
    g: &Graph,
    edges: usize,
    min_support: u64,
) -> HashMap<CanonicalCode, Vec<Domain>> {
    let mut sets: HashSet<Vec<u32>> = (0..g.num_edges() as u32).map(|e| vec![e]).collect();
    for _ in 1..edges {
        let mut grown = HashSet::new();
        for set in &sets {
            for &e in set {
                let (u, v) = g.edge_endpoints(EdgeId(e));
                for &f in g.incident_edges(u).iter().chain(g.incident_edges(v)) {
                    if !set.contains(&f) {
                        let mut more = set.clone();
                        more.push(f);
                        more.sort_unstable();
                        grown.insert(more);
                    }
                }
            }
        }
        sets = grown;
    }
    let mut ids: HashMap<CanonicalCode, Vec<Vec<u32>>> = HashMap::new();
    let mut sg = Subgraph::new(g);
    for set in sets {
        // Each edge after the first touches one before it.
        let mut rest = set;
        while !rest.is_empty() {
            let at = (rest.iter())
                .position(|&e| {
                    let (u, v) = g.edge_endpoints(EdgeId(e));
                    let touches = sg.position_of(u.raw()).or(sg.position_of(v.raw()));
                    sg.num_edges() == 0 || touches.is_some()
                })
                .expect("a connected edge set");
            sg.push_edge(g, rest.remove(at));
        }
        let view = SubgraphView {
            graph: g,
            subgraph: &sg,
        };
        view.canonical_form(true, true, |form| {
            let domains =
                (ids.entry(form.code.clone())).or_insert_with(|| vec![Vec::new(); form.perm.len()]);
            for (&v, &at) in view.vertices().iter().zip(form.perm) {
                domains[form.orbit_reps[at as usize] as usize].push(v);
            }
        });
        while sg.num_edges() > 0 {
            sg.pop_edge();
        }
    }
    ids.into_iter()
        .map(|(code, ids)| {
            (
                code,
                ids.into_iter().map(Domain::from_iter).collect::<Vec<_>>(),
            )
        })
        .filter(|(_, domains)| {
            let support = domains
                .iter()
                .filter(|d| !d.is_empty())
                .map(Domain::len)
                .min();
            support.unwrap_or(0) as u64 >= min_support
        })
        .collect()
}

#[test]
fn named_fsm_domains_match_materialised_embeddings() {
    // Whole domains, list or bitmap, not only their sizes: ids staged at
    // the wrong canonical position can leave a support as it was, not the
    // domains. The fault leg aborts and retries units.
    let (g, min_support) = (gen::patents_like(80, 8, 5), 2);
    let want: Vec<_> = (1..=3)
        .map(|edges| domains_by_embedding(&g, edges, min_support))
        .collect();
    let shapes = want.iter().flat_map(|round| round.values().flatten());
    let (lists, bitmaps) = shapes.filter(|d| !d.is_empty()).fold((0, 0), |(l, b), d| {
        (l + !d.is_bitmap() as usize, b + d.is_bitmap() as usize)
    });
    assert!(lists > 0 && bitmaps > 0, "{lists} lists, {bitmaps} bitmaps");
    assert!(want[2].keys().any(|c| c.num_vertices() == 4));
    let faulty = ClusterConfig::local(2, 2).with_faults(FaultConfig::unit_panic(1, 1));
    let mut retried = 0;
    for cfg in [
        ClusterConfig::local(1, 1),
        ClusterConfig::local(2, 2),
        faulty,
    ] {
        let fg = fg_of(&g, cfg.clone());
        for (rounds, want) in (1..).zip(&want) {
            let f = fsm::fsm_fractoid(&fg, min_support, rounds);
            let report = f.execute();
            retried += report
                .steps
                .iter()
                .map(|s| s.faults.units_retried)
                .sum::<u64>();
            let got = f.aggregation::<CanonicalCode, DomainSupport>("support");
            assert_eq!(got.len(), want.len(), "round {rounds} on {cfg:?}");
            for (code, domains) in want {
                assert_eq!(got[code].domains(), &domains[..], "{code:?} on {cfg:?}");
            }
        }
    }
    assert!(retried > 0, "no unit was aborted and retried");
}
