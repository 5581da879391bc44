//! Clique listing & counting (§2.2, Listing 2) and the optimized KClist
//! variant (Appendix B, Listings 6/7).

use fractal_core::{ExecutionReport, FractalGraph, Fractoid, SubgraphData};
use fractal_enum::kclist::CliqueDag;
use fractal_enum::KClistEnumerator;
use std::sync::Arc;

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
/// The DAG is built once and shared across all cores.
pub fn cliques_kclist_fractoid(fg: &FractalGraph, k: usize) -> Fractoid {
    assert!(k >= 1, "clique size must be at least 1");
    let dag = Arc::new(CliqueDag::build(fg.graph()));
    fg.vfractoid_with(move |_g| Box::new(KClistEnumerator::with_dag(dag.clone())))
        .expand(1)
        .explore(k)
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
