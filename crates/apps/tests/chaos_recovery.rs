//! Chaos acceptance tests (fault tolerance, DESIGN.md §9): every
//! application result must be **bit-identical** to its fault-free run
//! under every injected fault kind — worker kill with supervised
//! recovery, and unit panics with retry — on every seed of [`SEEDS`], and
//! every kind must actually fire. The job must also terminate (the test
//! finishing is the assertion). A sabotaged-recovery run proves the matrix
//! would catch a broken recovery path. Corrupt stolen units are a wire
//! fault: `crates/net/tests/cluster.rs` drives the thief's `Nack`.

use fractal_apps::{cliques, fsm, motifs, query};
use fractal_core::{FractalContext, FractalGraph};
use fractal_graph::{gen, Graph};
use fractal_runtime::{ClusterConfig, FaultConfig, FaultStats, JobReport};
use std::collections::BTreeMap;
use std::fmt::Debug;

fn fg_of(g: &Graph, cfg: ClusterConfig) -> FractalGraph {
    FractalContext::new(cfg).fractal_graph(g.clone())
}

/// Two workers × two cores: the smallest shape where a kill has a survivor
/// and both steal levels run.
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
    ]
}

const SEEDS: std::ops::RangeInclusive<u64> = 1..=6;

fn faults(reports: &[JobReport]) -> FaultStats {
    let mut sum = FaultStats::default();
    for r in reports {
        sum.absorb(&r.faults);
    }
    sum
}

/// Runs `run` fault-free, then under every fault kind on every seed:
/// each result must equal the fault-free one with no unit lost, and each
/// kind must inject at least one fault across the seeds.
fn assert_exact_under_all_faults<T: PartialEq + Debug>(
    what: &str,
    g: &Graph,
    run: impl Fn(&FractalGraph) -> (T, Vec<JobReport>),
) {
    let (want, reports) = run(&fg_of(g, base_cfg()));
    assert_eq!(
        faults(&reports),
        FaultStats::default(),
        "{what}: fault-free run"
    );
    let mut fired: BTreeMap<&str, u64> = BTreeMap::new();
    for seed in SEEDS {
        for (kind, plan) in fault_plans(seed) {
            let (got, reports) = run(&fg_of(g, base_cfg().with_faults(plan)));
            assert_eq!(got, want, "{what} diverged under {kind} seed {seed}");
            let f = faults(&reports);
            assert_eq!(
                f.units_lost, 0,
                "{what} lost units under {kind} seed {seed}"
            );
            *fired.entry(kind).or_default() += f.faults_injected;
        }
    }
    for (kind, n) in fired {
        assert!(n > 0, "{what}: {kind} never fired on seeds {SEEDS:?}");
    }
}

#[test]
fn motifs_k3_bit_identical_under_all_faults() {
    let g = gen::mico_like(150, 4, 7);
    assert_exact_under_all_faults("motifs k=3", &g, |fg| {
        let (hist, report) = motifs::motifs_with_report(fg, 3, false);
        assert!(!hist.is_empty());
        (hist, report.steps)
    });
}

#[test]
fn cliques_k4_bit_identical_under_all_faults() {
    let g = gen::mico_like(170, 4, 11);
    assert_exact_under_all_faults("KClist k=4", &g, |fg| {
        let (count, report) = cliques::count_kclist_with_report(fg, 4);
        assert!(count > 0);
        (count, report.steps)
    });
}

#[test]
fn query_bit_identical_under_all_faults() {
    // Pattern-induced units carry vertex marks in the enumerator: a unit
    // unwound mid-depth leaves them set, and the next unit on that core
    // (or a rebuilt stolen prefix) must start from none.
    let g = gen::mico_like(150, 4, 7);
    for q in [query::diamond(), query::house()] {
        assert_exact_under_all_faults(&q.to_string(), &g, |fg| {
            let (count, report) = query::count_matches_with_report(fg, &q);
            assert!(count > 0);
            (count, report.steps)
        });
    }
}

#[test]
fn fsm_bit_identical_under_all_faults() {
    // FSM is the hardest case: multiple fractal steps, live aggregations
    // published between steps, and aggregation-filtered re-execution — the
    // per-unit staged-commit path must be exact for supports to match.
    // Three edges, because the deepest level is named, not registered:
    // with two, no unit registers a level at depth 1 and unit panics
    // never fire.
    let g = gen::patents_like(100, 4, 23);
    assert_exact_under_all_faults("FSM", &g, |fg| {
        let result = fsm::fsm(fg, 12, 3);
        let frequent = fsm::frequent_map(&result);
        assert!(!frequent.is_empty());
        (
            frequent,
            result.reports.into_iter().flat_map(|r| r.steps).collect(),
        )
    });
}

#[test]
fn sabotaged_recovery_is_detected() {
    // Killed units are accounted but never re-executed: the matrix must
    // see units lost on every seed and a diverged census on at least one
    // (a lost unit may hold no subgraph, so divergence is only guaranteed
    // across the seeds).
    let g = gen::mico_like(150, 4, 7);
    let want = motifs::motifs(&fg_of(&g, base_cfg()), 3);
    let mut diverged = false;
    for seed in SEEDS {
        let plan = FaultConfig::worker_kill(seed, 1)
            .with_kill_after_units(2)
            .with_sabotaged_recovery();
        let fg = fg_of(&g, base_cfg().with_faults(plan));
        let (got, report) = motifs::motifs_with_report(&fg, 3, false);
        assert!(
            faults(&report.steps).units_lost > 0,
            "seed {seed}: sabotaged recovery lost no units, so the kill exercised nothing"
        );
        diverged |= got != want;
    }
    assert!(
        diverged,
        "sabotaged recovery stayed exact on every seed: the matrix cannot detect it"
    );
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
