//! Determinism and configuration-invariance: results never depend on the
//! cluster shape, stealing mode, or repetition.

use fractal::pattern::CanonicalCode;
use fractal::prelude::*;
use std::collections::HashMap;

fn shapes() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::single_thread(),
        ClusterConfig::local(1, 4),
        ClusterConfig::local(2, 2),
        ClusterConfig::local(2, 2).with_ws(WsMode::Disabled),
        ClusterConfig::local(2, 2).with_ws(WsMode::ExternalOnly),
        ClusterConfig::local(4, 1)
            .with_ws(WsMode::Both)
            .with_latency_us(1),
    ]
}

#[test]
fn motif_census_invariant() {
    let g = fractal::graph::gen::mico_like(220, 3, 7);
    let mut reference: Option<HashMap<CanonicalCode, u64>> = None;
    for cfg in shapes() {
        let fg = FractalContext::new(cfg).fractal_graph(g.clone());
        let m = fractal::apps::motifs::motifs(&fg, 3);
        match &reference {
            None => reference = Some(m),
            Some(r) => assert_eq!(&m, r),
        }
    }
}

#[test]
fn query_counts_invariant() {
    let g = fractal::graph::gen::patents_like(200, 1, 7);
    let q = fractal::apps::query::diamond();
    let mut reference = None;
    for cfg in shapes() {
        let fg = FractalContext::new(cfg).fractal_graph(g.clone());
        let n = fractal::apps::query::count_matches(&fg, &q);
        match reference {
            None => reference = Some(n),
            Some(r) => assert_eq!(n, r),
        }
    }
}

#[test]
fn fsm_results_invariant() {
    let g = fractal::graph::gen::patents_like(80, 3, 29);
    let mut reference: Option<HashMap<CanonicalCode, u64>> = None;
    for cfg in shapes().into_iter().take(4) {
        let fg = FractalContext::new(cfg).fractal_graph(g.clone());
        let m = fractal::apps::fsm::frequent_map(&fractal::apps::fsm::fsm(&fg, 8, 2));
        match &reference {
            None => reference = Some(m),
            Some(r) => assert_eq!(&m, r),
        }
    }
}

#[test]
fn fsm_cli_prints_identically_run_to_run() {
    // Each process hashes with its own seed, so two runs list a round's
    // ~20 patterns in the same order only if the order is the codes'.
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fractal"))
            .args(["fsm", "--support", "8", "--max-edges", "2"])
            .args(["--gen", "patents", "--n", "200", "--seed", "3"])
            .args(extra)
            .output()
            .expect("run fractal fsm");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    for extra in [&[][..], &["--reduce"][..]] {
        let first = run(extra);
        assert!(first.lines().count() > 20, "too few patterns:\n{first}");
        for _ in 0..2 {
            assert_eq!(run(extra), first, "fsm {extra:?} output moved");
        }
    }
}

#[test]
fn repeated_runs_identical() {
    let g = fractal::graph::gen::youtube_like(200, 1, 31);
    let fg = FractalContext::new(ClusterConfig::local(2, 2)).fractal_graph(g);
    let runs: Vec<u64> = (0..3)
        .map(|_| fractal::apps::cliques::count(&fg, 4))
        .collect();
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
}

#[test]
fn generators_are_deterministic() {
    let a = fractal::graph::gen::wikidata_like(300, 40, 5);
    let b = fractal::graph::gen::wikidata_like(300, 40, 5);
    assert_eq!(a.num_edges(), b.num_edges());
    for v in a.vertices() {
        assert_eq!(a.neighbors(v), b.neighbors(v));
        assert_eq!(a.vertex_keywords(v), b.vertex_keywords(v));
    }
}
