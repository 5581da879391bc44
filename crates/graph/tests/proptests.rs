//! Property-based tests for the graph substrate.

use fractal_graph::bitset::Bitset;
use fractal_graph::{try_graph_from_edges, Graph, GraphBuilder, GraphError, Label, VertexId};
use proptest::prelude::*;

/// Strategy: a random simple graph as (n, edge list with dedup handled by
/// the builder).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (2usize..30).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 0u32..4u32), 0..60);
        (Just(n), edges)
    })
}

/// Vertex labels for `n` vertices and the edges of `edges` the model
/// admits (the ones `add_edge` accepts, in order), with the graph the
/// builder freezes from them.
fn admitted(n: usize, edges: &[(u32, u32, u32)]) -> (Vec<u32>, Vec<(u32, u32, u32)>, Graph) {
    let labels: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
    let mut b = GraphBuilder::new();
    for &l in &labels {
        b.add_vertex(Label(l));
    }
    let mut valid = Vec::new();
    for &(u, v, l) in edges {
        if b.add_edge(VertexId(u), VertexId(v), Label(l)).is_ok() {
            valid.push((u, v, l));
        }
    }
    (labels, valid, b.build())
}

fn build(n: usize, edges: &[(u32, u32, u32)]) -> Graph {
    admitted(n, edges).2
}

proptest! {
    /// The bulk constructor and the builder are one freeze: same offsets,
    /// same two neighbour arrays, same endpoints and labels.
    #[test]
    fn bulk_constructor_agrees_with_builder((n, edges) in arb_graph()) {
        let (labels, valid, built) = admitted(n, &edges);
        let bulk = try_graph_from_edges(&labels, &valid).expect("admitted edges");
        prop_assert_eq!(bulk.num_vertices(), built.num_vertices());
        prop_assert_eq!(bulk.num_edges(), built.num_edges());
        for v in built.vertices() {
            prop_assert_eq!(bulk.degree(v), built.degree(v));
            prop_assert_eq!(bulk.neighbors(v), built.neighbors(v));
            prop_assert_eq!(bulk.incident_edges(v), built.incident_edges(v));
            prop_assert_eq!(bulk.vertex_label(v), built.vertex_label(v));
        }
        for e in built.edges() {
            prop_assert_eq!(bulk.edge_endpoints(e), built.edge_endpoints(e));
            prop_assert_eq!(bulk.edge_label(e), built.edge_label(e));
        }
        prop_assert_eq!(bulk.num_vertex_labels(), built.num_vertex_labels());
        prop_assert_eq!(bulk.num_edge_labels(), built.num_edge_labels());
    }

    /// One bad edge anywhere in an otherwise valid list is an `Err` that
    /// names it: a self-loop, an endpoint past the last vertex (either
    /// side), a repeated edge (either orientation).
    #[test]
    fn bulk_constructor_names_the_offending_edge(
        (n, edges) in arb_graph(),
        pick in any::<usize>(),
        flip in any::<bool>(),
    ) {
        let (labels, valid, _) = admitted(n, &edges);
        let with = |bad: (u32, u32, u32)| {
            let mut list = valid.clone();
            list.insert(pick % (valid.len() + 1), bad);
            try_graph_from_edges(&labels, &list)
        };
        let v = (pick % n) as u32;
        let past = n as u32 + (pick % 5) as u32;
        prop_assert!(matches!(with((v, v, 0)), Err(GraphError::SelfLoop(x)) if x == v));
        let unknown = if flip { (past, v, 0) } else { (v, past, 0) };
        prop_assert!(matches!(with(unknown), Err(GraphError::UnknownVertex(x)) if x == past));
        if let Some(&(a, b, l)) = valid.get(pick % valid.len().max(1)) {
            let again = if flip { (b, a, l + 1) } else { (a, b, l) };
            prop_assert!(matches!(
                with(again),
                Err(GraphError::DuplicateEdge(x, y)) if (x, y) == (a.min(b), a.max(b))
            ));
        }
    }

    /// Every built graph passes internal validation.
    #[test]
    fn builder_always_valid((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        prop_assert!(g.validate().is_ok());
    }

    /// Adjacency is symmetric and consistent with edge endpoint tables.
    #[test]
    fn adjacency_symmetric((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                prop_assert!(g.neighbors(VertexId(u)).binary_search(&v.raw()).is_ok());
                prop_assert!(g.are_adjacent(v, VertexId(u)));
            }
        }
        // Handshake lemma.
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    /// edge_between agrees with a brute-force scan of the endpoint table.
    #[test]
    fn edge_lookup_agrees_with_scan((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for u in g.vertices() {
            for v in g.vertices() {
                if u >= v { continue; }
                let scan = g.edges().find(|&e| {
                    let (a, b) = g.edge_endpoints(e);
                    (a, b) == (u, v)
                });
                prop_assert_eq!(g.edge_between(u, v), scan);
            }
        }
    }

    /// Neighborhood intersection equals the set-based definition.
    #[test]
    fn intersection_is_setwise((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        for u in g.vertices() {
            for v in g.vertices() {
                g.intersect_neighbors(u, v, &mut buf);
                let a: std::collections::BTreeSet<u32> = g.neighbors(u).iter().copied().collect();
                let b: std::collections::BTreeSet<u32> = g.neighbors(v).iter().copied().collect();
                let expect: Vec<u32> = a.intersection(&b).copied().collect();
                prop_assert_eq!(&buf, &expect);
            }
        }
    }

    /// Reduction with full masks preserves the graph; with a random vertex
    /// mask it keeps exactly the induced edges, relabeled consistently.
    #[test]
    fn reduction_induced_semantics((n, edges) in arb_graph(), keep_bits in proptest::collection::vec(any::<bool>(), 30)) {
        let g = build(n, &edges);
        let mut vmask = Bitset::new(g.num_vertices());
        for v in 0..g.num_vertices() {
            if keep_bits[v % keep_bits.len()] {
                vmask.set(v);
            }
        }
        let r = g.reduce(&vmask, &Bitset::full(g.num_edges()));
        // Kept edge count equals brute-force count of edges with both
        // endpoints kept.
        let expect = g.edges().filter(|&e| {
            let (a, b) = g.edge_endpoints(e);
            vmask.get(a.index()) && vmask.get(b.index())
        }).count();
        prop_assert_eq!(r.graph.num_edges(), expect);
        // Every reduced edge maps back to an original edge between the
        // mapped endpoints, with the same label.
        for e in r.graph.edges() {
            let (a, b) = r.graph.edge_endpoints(e);
            let (oa, ob) = (r.to_orig_vertex(a), r.to_orig_vertex(b));
            let oe = r.to_orig_edge(e);
            let (s, d) = g.edge_endpoints(oe);
            prop_assert_eq!((s, d), (oa.min(ob), oa.max(ob)));
            prop_assert_eq!(g.edge_label(oe), r.graph.edge_label(e));
            prop_assert_eq!(g.vertex_label(oa), r.graph.vertex_label(a));
        }
    }

    /// Adjacency-list round trip preserves the graph exactly.
    #[test]
    fn io_roundtrip((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        fractal_graph::io::write_adjacency_list(&g, &mut buf).unwrap();
        let g2 = fractal_graph::io::read_adjacency_list(std::io::BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(g2.num_vertices(), g.num_vertices());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for v in g.vertices() {
            prop_assert_eq!(g2.neighbors(v), g.neighbors(v));
            prop_assert_eq!(g2.vertex_label(v), g.vertex_label(v));
        }
    }
}
