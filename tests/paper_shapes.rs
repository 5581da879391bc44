//! Qualitative shape tests: the claims the paper's evaluation rests on,
//! asserted as invariants rather than timed comparisons (timing is the
//! harness's job; these must hold on any machine).

use fractal::prelude::*;
use fractal_baselines::bfs_engine::{self, BfsConfig, Storage};
use fractal_baselines::{Budget, Outcome};

/// §4.1/Table 2: the BFS engine's stored state grows steeply with the
/// enumeration depth; Fractal's from-scratch DFS state stays flat.
///
/// The BFS runs share a 128 MiB state budget: k = 4 fits (about 78 MB),
/// k = 5 outgrows it and stops there as OOM, where Fractal's k = 5 state
/// is a few kilobytes.
#[test]
fn memory_flat_vs_growing() {
    let g = fractal::graph::gen::mico_like(250, 2, 31);
    let fc = FractalContext::new(ClusterConfig::local(2, 2));
    let fg = fc.fractal_graph(g.clone());

    let frac_mem: Vec<u64> = (3..=5)
        .map(|k| {
            let (_, r) = fractal::apps::cliques::count_with_report(&fg, k);
            r.peak_worker_state_bytes()
        })
        .collect();
    let budget = Budget {
        max_state_bytes: 128 << 20,
        ..Budget::unlimited()
    };
    let cfg = BfsConfig::new(2)
        .with_storage(Storage::Flat)
        .with_budget(budget);
    let bfs: Vec<_> = (3..=5)
        .map(|k| bfs_engine::motifs_bfs(&g, k, &cfg, false))
        .collect();
    assert!(
        bfs[1].is_ok(),
        "k = 4 must fit the budget: {:?}",
        bfs[1].stats()
    );
    assert!(
        matches!(bfs[2], Outcome::Oom(_)),
        "k = 5 must outgrow the budget: {:?}",
        bfs[2].stats()
    );
    let bfs_mem: Vec<u64> = bfs.iter().map(|o| o.stats().peak_state_bytes).collect();
    // BFS state explodes with depth…
    assert!(bfs_mem[2] > 4 * bfs_mem[0], "bfs: {bfs_mem:?}");
    // …while Fractal stays within a small constant factor.
    let fmax = *frac_mem.iter().max().unwrap() as f64;
    let fmin = *frac_mem.iter().min().unwrap().max(&1) as f64;
    assert!(fmax / fmin < 4.0, "fractal state not flat: {frac_mem:?}");
    // And at the deepest level the BFS engine holds far more state.
    assert!(
        bfs_mem[2] > frac_mem[2],
        "bfs {bfs_mem:?} vs fractal {frac_mem:?}"
    );
}

/// §4.2/Fig. 16: enabling work stealing on skewed work reduces per-core
/// imbalance without changing results.
#[test]
fn work_stealing_improves_balance() {
    let g = fractal::graph::gen::barabasi_albert(600, 7, 1, 1, 3);
    let run = |mode: WsMode| {
        let fc = FractalContext::new(ClusterConfig::local(2, 2).with_ws(mode));
        let fg = fc.fractal_graph(g.clone());
        fractal::apps::cliques::count_with_report(&fg, 4)
    };
    let (count_d, rep_d) = run(WsMode::Disabled);
    let (count_b, rep_b) = run(WsMode::Both);
    assert_eq!(count_d, count_b);
    let imb_d = rep_d.steps[0].imbalance();
    let imb_b = rep_b.steps[0].imbalance();
    let (int, ext) = rep_b.steals();
    assert!(int + ext > 0, "no steals on skewed work");
    assert!(
        imb_b < imb_d || imb_d < 0.1,
        "stealing did not improve balance: {imb_d:.3} -> {imb_b:.3}"
    );
}

/// §4.3/Fig. 17: graph reduction slashes the extension cost for localized
/// (keyword) workloads and preserves results exactly.
#[test]
fn reduction_helps_keyword_search() {
    let g = fractal::graph::gen::wikidata_like(1500, 80, 7);
    let fc = FractalContext::new(ClusterConfig::local(1, 2));
    let fg = fc.fractal_graph(g);
    let words = ["kw2", "kw9"];
    let plain = fractal::apps::keyword::keyword_search_str(&fg, &words, false).unwrap();
    let reduced = fractal::apps::keyword::keyword_search_str(&fg, &words, true).unwrap();
    assert_eq!(plain.subgraphs.len(), reduced.subgraphs.len());
    assert!(
        reduced.report.total_ec() * 2 < plain.report.total_ec(),
        "EC {} -> {}",
        plain.report.total_ec(),
        reduced.report.total_ec()
    );
}

/// §6: the counter-example — reducing the input to clique-participating
/// elements barely moves the extension cost of clique mining.
#[test]
fn reduction_does_not_help_cliques_much() {
    let g = fractal::graph::gen::mico_like(300, 1, 77);
    let fc = FractalContext::new(ClusterConfig::local(1, 2));
    let fg = fc.fractal_graph(g.clone());
    let k = 4;
    let (n_before, rep_before) = fractal::apps::cliques::count_with_report(&fg, k);
    let tracked = fractal::apps::cliques::cliques_fractoid(&fg, k).execute_tracking_participation();
    let p = tracked.participation.unwrap();
    let reduced = fg.wrap_reduced(g.reduce(&p.vertices, &p.edges));
    let (n_after, rep_after) = fractal::apps::cliques::count_with_report(&reduced, k);
    assert_eq!(n_before, n_after);
    // Most of the EC survives: candidate tests concentrate in the dense
    // regions the reduction keeps. (Keyword search drops EC by >2x in the
    // companion test; here the bulk remains.)
    assert!(
        rep_after.total_ec() * 10 > rep_before.total_ec() * 5,
        "clique EC unexpectedly halved: {} -> {}",
        rep_before.total_ec(),
        rep_after.total_ec()
    );
}

/// §6: work-stealing overhead is a small fraction of execution.
#[test]
fn steal_overhead_is_small() {
    let g = fractal::graph::gen::mico_like(400, 1, 13);
    let fc = FractalContext::new(ClusterConfig::local(2, 2));
    let fg = fc.fractal_graph(g);
    let (_, report) = fractal::apps::cliques::count_with_report(&fg, 4);
    let overhead = report.steps[0].steal_overhead();
    assert!(overhead < 0.25, "steal overhead {overhead:.3} too large");
}

/// Algorithm 2: FSM splits into one step per aggregation filter, and
/// recomputing from scratch reuses published aggregations.
#[test]
fn fsm_is_multi_step_and_reuses_aggregations() {
    let g = fractal::graph::gen::patents_like(100, 3, 19);
    let fc = FractalContext::new(ClusterConfig::local(1, 2));
    let fg = fc.fractal_graph(g);
    let result = fractal::apps::fsm::fsm(&fg, 8, 3);
    // Iteration i's report contains exactly one *new* step (ancestor
    // aggregations are served from the store).
    for (i, report) in result.reports.iter().enumerate() {
        assert_eq!(report.num_steps(), 1, "iteration {i} recomputed steps");
    }
    assert!(result.reports.len() >= 2, "fsm did not iterate");
}
