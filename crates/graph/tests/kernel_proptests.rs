//! Property tests for the extension hot-path kernels: every variant
//! (merge / gallop / bitset / adaptive) must equal the naive reference
//! intersection on random sorted sets and on Mico-like generated graphs,
//! `seek_above` must equal a filter, and the arena level stack must behave
//! exactly like a stack of freshly-allocated `Vec`s.

use fractal_graph::kernels::{
    collect_induced_edges, gallop_into, intersect, merge_into, seek_above, ExtensionKernels,
    KernelCounters,
};
use fractal_graph::{gen, VertexId};
use proptest::prelude::*;

/// Naive reference: binary-search membership of `a`'s elements in `b`.
fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter()
        .copied()
        .filter(|x| b.binary_search(x).is_ok())
        .collect()
}

/// A random sorted, deduplicated set over a bounded universe.
fn arb_sorted_set(universe: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..universe, 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #[test]
    fn merge_equals_naive(
        a in arb_sorted_set(512, 120),
        b in arb_sorted_set(512, 120),
    ) {
        let mut out = Vec::new();
        let mut c = KernelCounters::default();
        merge_into(&a, &b, &mut out, &mut c);
        prop_assert_eq!(out, naive_intersect(&a, &b));
        prop_assert_eq!(c.merge_calls, 1);
    }

    #[test]
    fn gallop_equals_naive_both_orders(
        a in arb_sorted_set(512, 40),
        b in arb_sorted_set(512, 200),
    ) {
        let mut out = Vec::new();
        let mut c = KernelCounters::default();
        gallop_into(&a, &b, &mut out, &mut c);
        prop_assert_eq!(&out, &naive_intersect(&a, &b));
        // Galloping the large list through the small one must agree too.
        let mut out2 = Vec::new();
        gallop_into(&b, &a, &mut out2, &mut c);
        prop_assert_eq!(out2, out);
        prop_assert_eq!(c.gallop_calls, 2);
    }

    #[test]
    fn adaptive_equals_naive(
        a in arb_sorted_set(2048, 300),
        b in arb_sorted_set(2048, 300),
    ) {
        let mut out = Vec::new();
        let mut c = KernelCounters::default();
        intersect(&a, &b, &mut out, &mut c);
        prop_assert_eq!(out, naive_intersect(&a, &b));
        if !a.is_empty() && !b.is_empty() {
            prop_assert_eq!(c.calls(), 1);
        }
    }

    #[test]
    fn bitset_equals_naive(
        a in arb_sorted_set(1024, 300),
        b in arb_sorted_set(1024, 300),
    ) {
        let mut k = ExtensionKernels::new();
        k.ensure_universe(1024);
        let mut out = Vec::new();
        if a.len() <= b.len() {
            k.bitset_into(&a, &b, &mut out);
        } else {
            k.bitset_into(&b, &a, &mut out);
        }
        prop_assert_eq!(&out, &naive_intersect(&a, &b));
        prop_assert_eq!(k.counters().bitset_calls, 1);
    }

    #[test]
    fn seek_above_equals_filter(a in arb_sorted_set(512, 150), lo in 0u32..512) {
        let above: Vec<u32> = a.iter().copied().filter(|&x| x > lo).collect();
        prop_assert_eq!(seek_above(&a, lo), &above[..]);
    }

    #[test]
    fn induced_edges_are_the_masked_members_in_adjacency_order(
        nbrs in arb_sorted_set(256, 60),
        others in arb_sorted_set(256, 12),
        seed in 0u64..1000,
    ) {
        // Members in a scrambled order: some adjacent (drawn from `nbrs`),
        // some not; the mask names the adjacent ones.
        let mut members: Vec<u32> = nbrs.iter().copied().step_by(3).take(10).collect();
        members.extend(others.iter().copied().filter(|u| nbrs.binary_search(u).is_err()));
        let len = members.len().max(1);
        members.rotate_left(seed as usize % len);
        let eids: Vec<u32> = nbrs.iter().map(|&u| u * 7 + 1).collect();
        let mask = members
            .iter()
            .enumerate()
            .filter(|(_, u)| nbrs.binary_search(u).is_ok())
            .fold(0u32, |m, (p, _)| m | 1 << p);
        let mut got = Vec::new();
        let added = collect_induced_edges(&nbrs, &eids, &members, mask, |e, at| got.push((e, at)));
        let want: Vec<(u32, usize)> = nbrs
            .iter()
            .zip(&eids)
            .filter_map(|(u, &e)| members.iter().position(|m| m == u).map(|at| (e, at)))
            .collect();
        prop_assert_eq!(added as usize, want.len());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn arena_stack_equals_vec_stack(
        base in arb_sorted_set(512, 200),
        others in proptest::collection::vec(arb_sorted_set(512, 200), 1..5),
        pops in 0usize..3,
    ) {
        let mut k = ExtensionKernels::new();
        k.ensure_universe(512);
        // Reference: a stack of owned Vecs.
        let mut stack: Vec<Vec<u32>> = vec![base.clone()];
        k.push_level_copy(&base);
        for o in &others {
            let top = stack.last().unwrap();
            stack.push(naive_intersect(top, o));
            k.push_level_intersect(o);
            prop_assert_eq!(k.top(), &stack.last().unwrap()[..]);
        }
        for _ in 0..pops.min(others.len()) {
            stack.pop();
            k.pop_level();
            prop_assert_eq!(k.top(), &stack.last().unwrap()[..]);
        }
        prop_assert_eq!(k.depth(), stack.len());
        k.reset_levels();
        prop_assert_eq!(k.depth(), 0);
    }

    #[test]
    fn graph_intersect_neighbors_equals_naive_on_mico(
        seed in 0u64..8,
        u in 0u32..200,
        v in 0u32..200,
    ) {
        let g = gen::mico_like(200, 3, seed);
        let mut out = Vec::new();
        let n = g.intersect_neighbors(VertexId(u), VertexId(v), &mut out);
        let want = naive_intersect(g.neighbors(VertexId(u)), g.neighbors(VertexId(v)));
        prop_assert_eq!(n, want.len());
        prop_assert_eq!(out, want);
    }
}
