//! The KClist enumerator lists exactly what the generic vertex-induced
//! clique fractoid lists, and exactly what a plain DAG search with sorted
//! intersections lists, vertex for vertex and edge for edge, on graphs
//! whose roots' local sub-DAGs span one, two and three bitset words, on
//! one core and on two workers of two cores with stealing on. Counts also
//! match the single-thread KClist baseline.

use fractal_apps::cliques;
use fractal_baselines::single_thread::kclist_cliques;
use fractal_core::{FractalContext, SubgraphData};
use fractal_enum::kclist::CliqueDag;
use fractal_graph::{gen, graph_from_edges, Graph, VertexId};
use fractal_runtime::{ClusterConfig, WsMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A graph in which vertex 0 and every vertex of `C` point to all of `B`
/// in the DAG, so their local sub-DAGs are `width` wide: 0 and `C` (of
/// `width - 1` vertices) have degree `width`, each vertex of `B` (of
/// `width`) is joined to 0, to all of `C` and to a random few of `B`.
fn wide(width: u32, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = 1..1 + width;
    let c = 1 + width..2 * width;
    let mut edges = Vec::new();
    for x in b.clone() {
        edges.push((0, x, 0));
        edges.extend(c.clone().map(|y| (x, y, 0)));
        for y in x + 1..b.end {
            if rng.gen_range(0..100) < 8 {
                edges.push((x, y, 0));
            }
        }
    }
    graph_from_edges(&vec![0; 2 * width as usize], &edges)
}

/// Cliques as a plain DAG search lists them, the independent reference:
/// roots in id order, each grown along the DAG through sorted
/// intersections of out-lists, candidates in id order; each added vertex
/// brings its edges to the members before it in ascending member id.
fn dag_search(g: &Graph, k: usize) -> Vec<SubgraphData> {
    fn grow(
        g: &Graph,
        dag: &CliqueDag,
        k: usize,
        clique: &mut SubgraphData,
        cands: &[u32],
        out: &mut Vec<SubgraphData>,
    ) {
        if clique.vertices.len() == k {
            return out.push(clique.clone());
        }
        for &v in cands {
            let mut members = clique.vertices.clone();
            members.sort_unstable();
            let edges = members
                .iter()
                .map(|&u| g.edge_between(VertexId(u), VertexId(v)).unwrap().raw());
            let before = clique.edges.len();
            clique.edges.extend(edges);
            clique.vertices.push(v);
            let next: Vec<u32> = cands
                .iter()
                .copied()
                .filter(|u| dag.out(v).contains(u))
                .collect();
            grow(g, dag, k, clique, &next, out);
            clique.vertices.pop();
            clique.edges.truncate(before);
        }
    }
    let dag = CliqueDag::build(g);
    let mut out = Vec::new();
    for root in g.vertices() {
        let mut clique = SubgraphData {
            vertices: vec![root.raw()],
            edges: Vec::new(),
        };
        grow(g, &dag, k, &mut clique, dag.out(root.raw()), &mut out);
    }
    out
}

fn sorted(listed: Vec<SubgraphData>) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut listed: Vec<_> = listed.into_iter().map(|s| (s.vertices, s.edges)).collect();
    listed.sort_unstable();
    listed
}

fn normalized(listed: Vec<SubgraphData>) -> Vec<(Vec<u32>, Vec<u32>)> {
    sorted(listed.into_iter().map(SubgraphData::normalized).collect())
}

/// KClist against the DAG search and the baseline for `ks`, and against
/// the generic fractoid for `generic_ks`, on each cluster shape.
fn check(g: &Graph, ks: std::ops::RangeInclusive<usize>, generic_ks: &[usize]) {
    let shapes = [
        ClusterConfig::local(1, 1).with_ws(WsMode::Disabled),
        ClusterConfig::local(2, 2),
    ];
    for k in ks {
        let want = sorted(dag_search(g, k));
        assert_eq!(want.len() as u64, kclist_cliques(g, k), "k={k}");
        for cfg in &shapes {
            let fg = FractalContext::new(cfg.clone()).fractal_graph(g.clone());
            let kclist = cliques::cliques_kclist_fractoid(&fg, k).subgraphs();
            let got = sorted(kclist.clone());
            assert!(
                got == want,
                "k={k} on {cfg:?}: {} listed, {} wanted",
                got.len(),
                want.len()
            );
            if generic_ks.contains(&k) {
                // The generic fractoid grows a clique in its own vertex
                // order, so the two agree as sets of vertices and edges.
                let generic = normalized(cliques::list(&fg, k));
                assert!(
                    normalized(kclist) == generic,
                    "k={k} on {cfg:?}: the generic fractoid lists {}",
                    generic.len()
                );
            }
        }
    }
}

#[test]
fn one_word_sub_dags_list_what_every_other_path_lists() {
    for seed in 0..3 {
        check(&gen::erdos_renyi(60, 420, 1, seed), 2..=5, &[2, 3, 4, 5]);
    }
    check(&gen::complete(9), 1..=9, &[3, 5, 9]);
}

#[test]
fn two_word_sub_dags_list_what_every_other_path_lists() {
    let g = wide(100, 7);
    assert_eq!(CliqueDag::build(&g).out(0).len(), 100);
    check(&g, 2..=5, &[3]);
}

#[test]
fn three_word_sub_dags_list_what_every_other_path_lists() {
    let g = wide(140, 11);
    assert_eq!(CliqueDag::build(&g).out(0).len(), 140);
    check(&g, 2..=5, &[3]);
}
