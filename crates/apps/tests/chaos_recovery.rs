//! Chaos acceptance tests (fault tolerance, DESIGN.md §9): every
//! application result must be **bit-identical** to its fault-free run
//! under every injected fault scenario — worker kill with supervised
//! recovery, unit panics with retry, dropped steal requests, and corrupted
//! stolen units. The job must also terminate (the test finishing is the
//! assertion).
//!
//! The deliberately-sabotaged-recovery scenario — proving these tests
//! *would* catch a broken recovery path — lives in the runtime's own unit
//! tests and in the chaos smoke binary's self-test leg.

use fractal_apps::{cliques, fsm, motifs, query};
use fractal_core::{FractalContext, FractalGraph};
use fractal_graph::{gen, Graph};
use fractal_runtime::{ClusterConfig, FaultConfig};

fn fg_of(g: &Graph, cfg: ClusterConfig) -> FractalGraph {
    FractalContext::new(cfg).fractal_graph(g.clone())
}

/// Two workers × two cores: the smallest shape where every fault kind is
/// meaningful (a kill needs a survivor; external steals need two workers).
fn base_cfg() -> ClusterConfig {
    ClusterConfig::local(2, 2).with_latency_us(0)
}

/// The chaos matrix's fault kinds. `panic_depth` is 1 because dispatched
/// units register exactly their shallowest enumeration level (the engine's
/// `MAX_REGISTERED_LEVELS`), so depth 1 is where injection reaches every
/// unit. The kill threshold is low so the victim still owns unfinished
/// root-partition work — the harshest recovery case.
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultConfig)> {
    vec![
        (
            "worker-kill",
            FaultConfig::worker_kill(seed, 1).with_kill_after_units(2),
        ),
        ("unit-panic", FaultConfig::unit_panic(seed, 1)),
        ("steal-drop", FaultConfig::steal_drop(seed)),
        ("corrupt-unit", FaultConfig::corrupt_unit(seed)),
    ]
}

const SEEDS: [u64; 2] = [1, 42];

#[test]
fn motifs_k3_bit_identical_under_all_faults() {
    let g = gen::mico_like(150, 4, 7);
    let want = motifs::motifs(&fg_of(&g, base_cfg()), 3);
    assert!(!want.is_empty());
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            let fg = fg_of(&g, base_cfg().with_faults(plan));
            assert_eq!(
                motifs::motifs(&fg, 3),
                want,
                "motifs k=3 diverged under {name} seed {seed}"
            );
        }
    }
}

#[test]
fn cliques_k4_bit_identical_under_all_faults() {
    let g = gen::mico_like(170, 4, 11);
    let want = cliques::count_kclist(&fg_of(&g, base_cfg()), 4);
    assert!(want > 0);
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            let fg = fg_of(&g, base_cfg().with_faults(plan));
            assert_eq!(
                cliques::count_kclist(&fg, 4),
                want,
                "4-cliques diverged under {name} seed {seed}"
            );
        }
    }
}

#[test]
fn query_bit_identical_under_all_faults() {
    // Pattern-induced units carry vertex marks in the enumerator: a unit
    // unwound mid-depth leaves them set, and the next unit on that core
    // (or a rebuilt stolen prefix) must start from none.
    let g = gen::mico_like(150, 4, 7);
    for q in [query::diamond(), query::house()] {
        let want = query::count_matches(&fg_of(&g, base_cfg()), &q);
        assert!(want > 0);
        for seed in SEEDS {
            for (name, plan) in fault_plans(seed) {
                let fg = fg_of(&g, base_cfg().with_faults(plan));
                assert_eq!(
                    query::count_matches(&fg, &q),
                    want,
                    "{q} diverged under {name} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn fsm_bit_identical_under_all_faults() {
    // FSM is the hardest case: multiple fractal steps, live aggregations
    // published between steps, and aggregation-filtered re-execution — the
    // per-unit staged-commit path must be exact for supports to match.
    let g = gen::patents_like(100, 4, 23);
    let want = fsm::frequent_map(&fsm::fsm(&fg_of(&g, base_cfg()), 12, 2));
    assert!(!want.is_empty());
    for seed in SEEDS {
        for (name, plan) in fault_plans(seed) {
            let fg = fg_of(&g, base_cfg().with_faults(plan));
            let got = fsm::frequent_map(&fsm::fsm(&fg, 12, 2));
            assert_eq!(got, want, "FSM diverged under {name} seed {seed}");
        }
    }
}

#[test]
fn worker_kill_actually_fires_and_is_recovered() {
    // Guard against the chaos matrix silently testing nothing: under the
    // kill plan the fault must actually fire, the watchdog must trip, and
    // no unit may be lost.
    let g = gen::mico_like(150, 4, 7);
    let fg = fg_of(
        &g,
        base_cfg().with_faults(FaultConfig::worker_kill(1, 1).with_kill_after_units(2)),
    );
    let (_, report) = motifs::motifs_with_report(&fg, 3, false);
    let faults = report.steps.iter().fold((0u64, 0u64, 0u64), |acc, s| {
        (
            acc.0 + s.faults.faults_injected,
            acc.1 + s.faults.watchdog_trips,
            acc.2 + s.faults.units_lost,
        )
    });
    assert!(faults.0 > 0, "kill plan injected nothing");
    assert!(faults.1 > 0, "worker death went undetected");
    assert_eq!(faults.2, 0, "recovery lost units");
}
