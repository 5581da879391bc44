//! How deep a workflow may grow is a property of its enumerator's words
//! (`SubgraphEnumerator::max_words`), and a workflow that asks for more is
//! refused by name before any core starts: by the engine with a panic on the
//! calling thread, by the CLI with exit code 2. Before the bound existed an
//! edge-induced workflow past 255 words wrapped a `u8` and returned a wrong
//! count from a release build.

use fractal::prelude::*;
use std::process::Command;

fn fg(g: fractal::graph::Graph) -> FractalGraph {
    FractalContext::new(ClusterConfig::local(1, 1)).fractal_graph(g)
}

#[test]
fn edge_growth_is_right_up_to_its_bound() {
    // Every connected k-edge subgraph of a 300-cycle is a path, one per
    // starting edge.
    let fg = fg(fractal::graph::gen::cycle(300));
    assert_eq!(fractal::subgraph::MAX_EDGE_WORDS, 255);
    assert_eq!(fg.efractoid().expand(200).count(), 300);
    assert_eq!(fg.efractoid().expand(255).count(), 300);
}

#[test]
#[should_panic(expected = "at most 255 words with this enumerator, got 258 expand()s")]
fn edge_growth_past_its_bound_is_refused() {
    fg(fractal::graph::gen::cycle(300))
        .efractoid()
        .expand(258)
        .count();
}

#[test]
fn vertex_growth_is_right_up_to_its_bound() {
    // A 33-vertex window slides along a 40-vertex path.
    let fg = fg(fractal::graph::gen::path(40));
    assert_eq!(fractal::subgraph::MAX_VERTEX_WORDS, 33);
    assert_eq!(fg.vfractoid().expand(33).count(), 8);
}

#[test]
#[should_panic(expected = "at most 33 words with this enumerator, got 34 expand()s")]
fn vertex_growth_past_its_bound_is_refused() {
    fg(fractal::graph::gen::path(40))
        .vfractoid()
        .expand(34)
        .count();
}

#[test]
#[should_panic(expected = "at most 3 words with this enumerator, got 4 expand()s")]
fn pattern_growth_past_its_plan_is_refused() {
    fg(fractal::graph::gen::complete(5))
        .pfractoid_unlabeled(&Pattern::clique(3))
        .expand(4)
        .count();
}

#[test]
fn distributed_steps_refuse_the_same_workflows() {
    let fg = fg(fractal::graph::gen::path(40));
    let too_deep = fg.vfractoid().expand(34);
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        too_deep.execute_step_distributed(vec![0], true, None)
    }));
    let panic = refused.err().expect("34 vertex words were accepted");
    let message = panic.downcast_ref::<String>().expect("assert message");
    assert!(message.contains("at most 33 words"), "{message}");
}

#[test]
fn cli_refuses_oversized_cliques_naming_the_bound() {
    for args in ["cliques -k 34", "cliques -k 34 --kclist", "cliques -k 0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fractal"))
            .args(args.split(' '))
            .args(["--gen", "mico", "--n", "20"])
            .output()
            .expect("run fractal");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: stderr:\n{stderr}");
        assert!(
            stderr.contains("cliques takes k in 1..=33"),
            "{args}: bound not named:\n{stderr}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_fractal"))
        .args("cliques -k 33 --kclist --gen mico --n 20".split(' '))
        .output()
        .expect("run fractal");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("33-cliques: 0"));
}
