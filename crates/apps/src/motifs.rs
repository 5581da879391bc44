//! Motif extraction & counting (§2.2, Listing 1).
//!
//! A motif is a connected *induced* subgraph pattern; the kernel counts,
//! for a given size `k`, how many subgraph instances each k-vertex pattern
//! has. Labels are conventionally ignored (the paper: "this kernel usually
//! ignores the labels in G"); a labeled variant is provided for the
//! multi-label memory experiments (Table 2).

use fractal_core::{Aggregator, ExecutionReport, FractalGraph, Fractoid};
use fractal_pattern::CanonicalCode;
use std::collections::HashMap;
use std::sync::Arc;

/// The Listing 1 fractoid: `vfractoid.expand(k).aggregate("motifs", …)`,
/// exposed standalone so distributed drivers/workers build the identical
/// workflow.
pub fn motifs_fractoid(fg: &FractalGraph, k: usize, use_labels: bool) -> Fractoid {
    assert!(k >= 1, "motif size must be at least 1");
    fg.vfractoid()
        .expand(k)
        .aggregate_spec(Arc::new(Aggregator::pattern_count(
            "motifs", use_labels, use_labels,
        )))
}

/// Counts all k-vertex motifs: pattern → number of induced instances
/// (Listing 1: `vfractoid.expand(k).aggregate("motifs", …)`).
pub fn motifs(fg: &FractalGraph, k: usize) -> HashMap<CanonicalCode, u64> {
    motifs_with_report(fg, k, false).0
}

/// Motif counting with label-aware patterns (each labeled template counted
/// separately — the "-ML" configurations of §5.2.1).
pub fn motifs_labeled(fg: &FractalGraph, k: usize) -> HashMap<CanonicalCode, u64> {
    motifs_with_report(fg, k, true).0
}

/// Full-control variant returning the execution report.
pub fn motifs_with_report(
    fg: &FractalGraph,
    k: usize,
    use_labels: bool,
) -> (HashMap<CanonicalCode, u64>, ExecutionReport) {
    let fractoid = motifs_fractoid(fg, k, use_labels);
    let report = fractoid.execute();
    let map = fractoid.aggregation::<CanonicalCode, u64>("motifs");
    (map, report)
}

/// Total number of k-vertex connected induced subgraphs (the sum over all
/// motifs) — the §4.1 memory motivating-example quantity.
pub fn total_subgraphs(fg: &FractalGraph, k: usize) -> u64 {
    fg.vfractoid().expand(k).count()
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
    fn triangle_plus_tail_motifs() {
        // Graph: triangle 0-1-2 with tail 2-3.
        let fg = fg_of(unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]));
        let m = motifs(&fg, 3);
        // 3-vertex motifs: 1 triangle and 2 paths.
        assert_eq!(m.len(), 2);
        let mut counts: Vec<u64> = m.values().copied().collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2]);
        // Identify which is which via the decoded pattern.
        for (code, count) in &m {
            let p = code.to_pattern();
            if p.is_clique() {
                assert_eq!(*count, 1);
            } else {
                assert_eq!(*count, 2);
            }
        }
    }

    #[test]
    fn star_motifs() {
        let fg = fg_of(gen::star(4).clone());
        let m = motifs(&fg, 3);
        // Only paths centered at the hub: C(4,2) = 6.
        assert_eq!(m.len(), 1);
        assert_eq!(*m.values().next().unwrap(), 6);
    }

    #[test]
    fn complete_graph_motifs() {
        let fg = fg_of(gen::complete(5));
        let m4 = motifs(&fg, 4);
        // Every 4-subset induces K4: C(5,4) = 5.
        assert_eq!(m4.len(), 1);
        assert_eq!(*m4.values().next().unwrap(), 5);
    }

    #[test]
    fn motif_total_matches_sum() {
        let fg = fg_of(gen::mico_like(120, 4, 5));
        let m = motifs(&fg, 3);
        let total: u64 = m.values().sum();
        assert_eq!(total, total_subgraphs(&fg, 3));
    }

    #[test]
    fn labeled_motifs_refine_unlabeled() {
        let fg = fg_of(gen::mico_like(100, 4, 6));
        let unlabeled = motifs(&fg, 3);
        let labeled = motifs_labeled(&fg, 3);
        // Labels split classes, never merge them.
        assert!(labeled.len() >= unlabeled.len());
        let total_u: u64 = unlabeled.values().sum();
        let total_l: u64 = labeled.values().sum();
        assert_eq!(total_u, total_l);
    }

    #[test]
    fn all_motif_shapes_on_dense_graph() {
        // ER with enough density contains all 6 connected 4-vertex shapes.
        let fg = fg_of(gen::erdos_renyi(30, 200, 1, 77));
        let m = motifs(&fg, 4);
        assert_eq!(m.len(), 6);
    }
}
