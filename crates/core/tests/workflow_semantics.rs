//! Semantics tests for workflow composition: mid-workflow aggregations,
//! multiple live aggregations in one step, replay pass-through, and the
//! explore operator's interaction with aggregation uids.

use fractal_core::prelude::*;
use fractal_core::Aggregator;
use fractal_pattern::CanonicalCode;
use fractal_runtime::ClusterConfig;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn fg() -> FractalGraph {
    // Triangle + tail (4 vertices, 4 edges).
    let g = fractal_graph::builder::unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
    FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(g)
}

#[test]
fn mid_workflow_aggregation_continues() {
    // Aggregate after 1 expansion, then keep expanding: the documented
    // generalization of Algorithm 1 (live aggregation accumulates, then
    // the recursion continues).
    let f = fg()
        .vfractoid()
        .expand(1)
        .aggregate("singles", |_| 0u32, |_| 1u64, |a, v| *a += v)
        .expand(1)
        .aggregate("pairs", |_| 0u32, |_| 1u64, |a, v| *a += v);
    let singles = f.aggregation::<u32, u64>("singles");
    let pairs = f.aggregation::<u32, u64>("pairs");
    assert_eq!(singles[&0], 4); // 4 vertices
    assert_eq!(pairs[&0], 4); // 4 edges
}

#[test]
fn two_live_aggregations_single_step() {
    // Both aggregations live in the same step (no W4 filter): one pass
    // computes both.
    let f = fg()
        .vfractoid()
        .expand(2)
        .aggregate("by_edges", |s| s.num_edges(), |_| 1u64, |a, v| *a += v)
        .aggregate("total", |_| (), |_| 1u64, |a, v| *a += v);
    let report = f.execute();
    assert_eq!(report.num_steps(), 1);
    let by_edges = f.aggregation::<usize, u64>("by_edges");
    let total = f.aggregation::<(), u64>("total");
    assert_eq!(by_edges[&1], 4);
    assert_eq!(total[&()], 4);
}

#[test]
fn replayed_aggregation_not_double_counted() {
    // Execute a prefix fractoid, then extend it and execute again: the
    // prefix aggregation is replayed as a pass-through and its stored
    // result must not change.
    let prefix = fg()
        .vfractoid()
        .expand(1)
        .aggregate("roots", |_| 0u32, |_| 1u64, |a, v| *a += v);
    let before = prefix.aggregation::<u32, u64>("roots");
    let extended = prefix.clone().expand(2);
    let _ = extended.count(); // re-executes the workflow from scratch
    let after = prefix.aggregation::<u32, u64>("roots");
    assert_eq!(before, after);
    assert_eq!(after[&0], 4);
}

#[test]
fn shared_name_resolves_to_nearest_upstream() {
    // FSM-style name reuse: a W4 filter reads the nearest preceding
    // aggregation with its name, not a later one.
    let f = fg()
        .efractoid()
        .expand(1)
        .aggregate("support", |s| s.edges()[0], |_| 1u64, |a, v| *a += v)
        .filter_agg("support", |s, agg| {
            // Keep only subgraphs whose first edge is an even edge id that
            // exists in the (first) aggregation.
            s.edges()[0] % 2 == 0 && agg.contains_key::<u32, u64>(&s.edges()[0])
        })
        .expand(1)
        .aggregate("support", |s| s.edges()[0], |_| 1u64, |a, v| *a += v);
    let report = f.execute();
    assert_eq!(report.num_steps(), 2);
    // The final aggregation (2-edge subgraphs rooted at even first edge)
    // is what `aggregation("support")` returns — the last occurrence.
    let second = f.aggregation::<u32, u64>("support");
    for key in second.keys() {
        assert_eq!(key % 2, 0, "odd-rooted subgraph slipped through");
    }
}

#[test]
fn explore_after_aggregation_duplicates_fragment() {
    // explore(n) re-uids cloned aggregations; each occurrence publishes
    // its own result, and the name resolves to the last one.
    let f = fg()
        .vfractoid()
        .expand(1)
        .aggregate("cum", |s| s.num_vertices(), |_| 1u64, |a, v| *a += v)
        .explore(3);
    assert_eq!(f.workflow_tags(), "EAEAEA");
    let last = f.aggregation::<usize, u64>("cum");
    // Last occurrence aggregates 3-vertex subgraphs: 3 of them.
    assert_eq!(last[&3], 3);
}

#[test]
fn subgraphs_after_trailing_aggregate() {
    // O1 after a trailing aggregation returns the result subgraphs too
    // (the aggregate is not a dead end).
    let f = fg()
        .vfractoid()
        .expand(2)
        .aggregate("x", |_| 0u32, |_| 1u64, |a, v| *a += v);
    let subs = f.subgraphs();
    assert_eq!(subs.len(), 4);
}

#[test]
fn derived_branches_do_not_collide() {
    // Two branches from one base with same-named aggregations must not
    // share results (uids differ per operator application).
    let base = fg().vfractoid().expand(1);
    let a = base
        .clone()
        .filter(|s| s.vertices()[0] % 2 == 0)
        .expand(1)
        .aggregate("n", |_| 0u32, |_| 1u64, |acc, v| *acc += v);
    let b = base
        .clone()
        .expand(1)
        .aggregate("n", |_| 0u32, |_| 1u64, |acc, v| *acc += v);
    let na = a.aggregation::<u32, u64>("n");
    let nb = b.aggregation::<u32, u64>("n");
    // Branch a only grows from even roots; branch b from all roots.
    assert!(na[&0] < nb[&0]);
    assert_eq!(nb[&0], 4);
}

/// Runs `count()` of a workflow whose filter panics on one 3-vertex
/// subgraph, on a thread, and returns its panic message. Fails instead of
/// hanging when the job does not end within a second.
fn count_with_panicking_filter(cfg: ClusterConfig) -> String {
    let g = fractal_graph::gen::mico_like(400, 4, 7);
    let mut target: Vec<u32> = g.neighbors(fractal_graph::VertexId(0))[..2].to_vec();
    target.push(0);
    target.sort_unstable();
    let fractoid = FractalContext::new(cfg)
        .fractal_graph(g)
        .vfractoid()
        .expand(3)
        .filter(move |s| {
            let mut vs = s.vertices().to_vec();
            vs.sort_unstable();
            assert_ne!(vs, target, "filter rejects subgraph {target:?}");
            true
        });
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fractoid.count()));
        let _ = tx.send(outcome);
    });
    let outcome = rx
        .recv_timeout(std::time::Duration::from_secs(1))
        .expect("the job did not end within 1 s");
    let payload = outcome.expect_err("count() returned despite the panicking filter");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| format!("non-string panic payload: {payload:?}"))
}

#[test]
fn a_unit_out_of_retries_fails_its_job_with_the_unit_panic() {
    for cfg in [ClusterConfig::local(1, 2), ClusterConfig::local(2, 2)] {
        let msg = count_with_panicking_filter(cfg.clone());
        assert!(
            msg.contains("filter rejects subgraph"),
            "{cfg:?}: wrong panic: {msg}"
        );
    }
}

/// A 3-vertex census of pattern counts on two workers of two cores whose
/// fold panics once, if `fault` is set: in the middle of a unit, on a
/// class the unit has already staged a count under. Returns the census
/// and the number of unit retries.
fn census_with_one_mid_unit_fold_panic(fault: bool) -> (BTreeMap<CanonicalCode, u64>, u64) {
    let g = fractal_graph::gen::mico_like(150, 1, 7);
    let armed = AtomicBool::new(fault);
    let fractoid = FractalContext::new(ClusterConfig::local(2, 2))
        .fractal_graph(g)
        .vfractoid()
        .expand(3)
        .aggregate_spec(Arc::new(Aggregator::by_pattern(
            "motifs",
            false,
            false,
            |_| 0u64,
            move |n, leaves, _| {
                // ordering: a lone flag, read-modify-written once; no other
                // memory is published through it.
                if *n > 0 && armed.swap(false, Ordering::Relaxed) {
                    panic!("fold fault after {n} staged leaves");
                }
                *n += leaves.len() as u64;
            },
            |into, from| *into += std::mem::take(from),
        )));
    let report = fractoid.execute();
    let retried = report.steps.iter().map(|s| s.faults.units_retried).sum();
    let census = fractoid.aggregation::<CanonicalCode, u64>("motifs");
    (census.into_iter().collect(), retried)
}

/// A unit aborted after its deepest level staged pattern-keyed values
/// drops them with the rest of its staging: its retry commits each leaf
/// once, so the census equals the fault-free one.
#[test]
fn a_unit_aborted_after_staging_pattern_values_commits_each_leaf_once() {
    let (want, retried) = census_with_one_mid_unit_fold_panic(false);
    assert_eq!(retried, 0);
    let (got, retried) = census_with_one_mid_unit_fold_panic(true);
    assert_eq!(
        retried, 1,
        "the fold panicked once and its unit was retried"
    );
    assert_eq!(got, want);
}
