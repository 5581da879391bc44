//! Clique listing & counting (§2.2, Listing 2) and the optimized KClist
//! variant (Appendix B, Listings 6/7).

use fractal_core::{ExecutionReport, FractalGraph, Fractoid, SubgraphData};
use fractal_enum::kclist::CliqueDag;
use fractal_enum::KClistEnumerator;
use fractal_graph::Graph;
use fractal_runtime::sync::Mutex;
use std::sync::{Arc, Weak};

/// The largest clique either fractoid here can grow: one vertex-induced
/// word per clique vertex.
pub const MAX_CLIQUE_SIZE: usize = fractal_enum::MAX_VERTEX_WORDS;

/// The Listing 2 fractoid: `vfractoid.expand(1).filter(clique).explore(k)`.
///
/// The filter is exactly the paper's check: the number of edges added by
/// the latest expansion must equal the number of vertices minus one.
pub fn cliques_fractoid(fg: &FractalGraph, k: usize) -> Fractoid {
    assert!(k >= 1, "clique size must be at least 1");
    fg.vfractoid()
        .expand(1)
        .filter(|s| s.last_level_edge_count() == s.num_vertices() - 1)
        .explore(k)
}

/// Counts k-cliques.
pub fn count(fg: &FractalGraph, k: usize) -> u64 {
    cliques_fractoid(fg, k).count()
}

/// Counts k-cliques and returns the execution report.
pub fn count_with_report(fg: &FractalGraph, k: usize) -> (u64, ExecutionReport) {
    cliques_fractoid(fg, k).count_with_report()
}

/// Lists k-cliques as result subgraphs.
pub fn list(fg: &FractalGraph, k: usize) -> Vec<SubgraphData> {
    cliques_fractoid(fg, k).subgraphs()
}

/// The Listing 7 fractoid: a vertex-induced fractoid with the custom
/// KClist enumerator (`vfractoid(new KClistEnum(…)).expand(1).explore(k)`).
/// Every core reads the DAG kept with the graph, built on its first use.
pub fn cliques_kclist_fractoid(fg: &FractalGraph, k: usize) -> Fractoid {
    assert!(k >= 1, "clique size must be at least 1");
    let dag = kept_dag(fg.graph());
    fg.vfractoid_with(move |_g| Box::new(KClistEnumerator::with_dag(dag.clone())))
        .expand(1)
        .explore(k)
}

/// The DAGs [`kept_dag`] saw built, by graph shape (vertices, edges):
/// diagnostics that show a graph's jobs share one DAG and that it goes
/// with its graph. Dead entries are pruned at each build.
static KEPT: Mutex<Vec<Kept>> = Mutex::new(Vec::new());

struct Kept {
    shape: (usize, usize),
    built: u64,
    live: Vec<Weak<CliqueDag>>,
}

/// The DAG kept with `g` ([`Graph::clique_dag`]), built on its first use.
fn kept_dag(g: &Graph) -> Arc<CliqueDag> {
    let dag = Arc::clone(g.clique_dag());
    let shape = (g.num_vertices(), g.num_edges());
    let mut kept = KEPT.lock();
    let at = kept
        .iter()
        .position(|k| k.shape == shape)
        .unwrap_or_else(|| {
            kept.push(Kept {
                shape,
                built: 0,
                live: Vec::new(),
            });
            kept.len() - 1
        });
    let entry = &mut kept[at];
    entry.live.retain(|w| w.strong_count() > 0);
    // The slot's first use built the DAG; later uses find it listed.
    if !entry.live.iter().any(|w| w.as_ptr() == Arc::as_ptr(&dag)) {
        entry.built += 1;
        entry.live.push(Arc::downgrade(&dag));
    }
    dag
}

/// `(built, live)` over graphs of `vertices` vertices and `edges` edges in
/// this process: the DAGs the KClist fractoid built into their graphs, and
/// those not yet dropped with their graph.
pub fn kept_dags(vertices: usize, edges: usize) -> (u64, usize) {
    let kept = KEPT.lock();
    kept.iter()
        .find(|k| k.shape == (vertices, edges))
        .map_or((0, 0), |k| {
            let live = k.live.iter().filter(|w| w.strong_count() > 0).count();
            (k.built, live)
        })
}

/// Counts k-cliques with the optimized KClist enumerator.
pub fn count_kclist(fg: &FractalGraph, k: usize) -> u64 {
    cliques_kclist_fractoid(fg, k).count()
}

/// Counts k-cliques with the optimized enumerator, with report.
pub fn count_kclist_with_report(fg: &FractalGraph, k: usize) -> (u64, ExecutionReport) {
    cliques_kclist_fractoid(fg, k).count_with_report()
}

/// Triangle counting — "the triangles implementation in Fractal is the
/// same as cliques with k = 3" (Appendix C).
pub fn triangles(fg: &FractalGraph) -> u64 {
    count(fg, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_core::FractalContext;
    use fractal_graph::builder::unlabeled_from_edges;
    use fractal_graph::gen;
    use fractal_runtime::ClusterConfig;

    fn fg_of(g: fractal_graph::Graph) -> FractalGraph {
        FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(g)
    }

    #[test]
    fn complete_graph_binomials() {
        let fg = fg_of(gen::complete(6));
        assert_eq!(count(&fg, 3), 20);
        assert_eq!(count(&fg, 4), 15);
        assert_eq!(count(&fg, 5), 6);
        assert_eq!(count(&fg, 6), 1);
    }

    #[test]
    fn kclist_agrees_with_generic() {
        let fg = fg_of(gen::youtube_like(250, 2, 13));
        for k in 3..=5 {
            assert_eq!(count(&fg, k), count_kclist(&fg, k), "k={k}");
        }
    }

    #[test]
    fn listing_returns_actual_cliques() {
        let fg = fg_of(unlabeled_from_edges(
            5,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
        ));
        let mut found = list(&fg, 3);
        found = found.into_iter().map(|s| s.normalized()).collect();
        found.sort();
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].vertices, vec![0, 1, 2]);
        assert_eq!(found[1].vertices, vec![2, 3, 4]);
        for s in &found {
            assert_eq!(s.edges.len(), 3);
        }
    }

    #[test]
    fn triangles_on_cycle_is_zero() {
        let fg = fg_of(gen::cycle(8));
        assert_eq!(triangles(&fg), 0);
    }

    #[test]
    fn workflow_shape_matches_listing() {
        let fg = fg_of(gen::complete(4));
        assert_eq!(cliques_fractoid(&fg, 3).workflow_tags(), "EFEFEF");
        assert_eq!(cliques_kclist_fractoid(&fg, 3).workflow_tags(), "EEE");
    }

    #[test]
    fn report_shows_single_step() {
        let fg = fg_of(gen::mico_like(150, 2, 3));
        let (c, report) = count_with_report(&fg, 4);
        assert!(c > 0);
        assert_eq!(report.num_steps(), 1);
        assert!(report.total_ec() > 0);
    }
}
