//! Exactness of FSM's candidate pruning (DESIGN.md §2.5): a pattern class
//! with a connected one-edge-smaller sub-pattern that the previous level
//! did not find frequent is never staged. The prune must be invisible in
//! the results: on three inputs the frequent set and every support equal
//! the GraMi-like baseline's, and every domain equals an unpruned run's, on
//! one core, on two cores with aborted units, with the graph reduction and
//! through the cluster's worker rounds.
//!
//! The same cases hold FSM's pattern filter (`filter_agg_by_pattern`,
//! decided once per class per core) against the reference chain that asks
//! a `filter_agg` closure of every subgraph's canonical form: frequent
//! sets, supports, domains and the candidate rule's refusals agree.

use fractal::apps::fsm::{self, DomainSupport};
use fractal::baselines::single_thread::grami_fsm;
use fractal::core::{FractalContext, FractalGraph, Fractoid};
use fractal::graph::{gen, Graph};
use fractal::net::{run_cluster, serve, AppSpec, DriverConfig, ServeOutcome};
use fractal::pattern::canon::canonical_code;
use fractal::pattern::CanonicalCode;
use fractal::runtime::{ClusterConfig, FaultConfig};
use std::collections::{HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

type Round = HashMap<CanonicalCode, DomainSupport>;

fn fg_of(g: &Graph, cfg: ClusterConfig) -> FractalGraph {
    FractalContext::new(cfg).fractal_graph(g.clone())
}

/// Levels 1..=3 as `fsm_fractoid` runs them, each from scratch.
fn pruned_rounds(fg: &FractalGraph, min_support: u64) -> Vec<Round> {
    (1..=3)
        .map(|rounds| fsm::fsm_fractoid(fg, min_support, rounds).aggregation("support"))
        .collect()
}

/// The closure filter of Listing 3: a subgraph passes when its canonical
/// form is a key of the previous level's supports.
fn frequent_before(fractoid: Fractoid) -> Fractoid {
    fractoid.filter_agg("support", |s, agg| {
        s.canonical_form(true, true, |form| {
            agg.contains_key::<CanonicalCode, DomainSupport>(form.code)
        })
    })
}

/// `fsm_fractoid(fg, min_support, rounds)` with the closure filter in place
/// of the pattern filter: the reference path.
fn closure_fractoid(fg: &FractalGraph, min_support: u64, rounds: usize) -> Fractoid {
    let mut fractoid = (fg.efractoid().expand(1))
        .aggregate_spec(Arc::new(fsm::fsm_support_aggregator(fg, min_support)));
    for _ in 1..rounds {
        fractoid = frequent_before(fractoid)
            .expand(1)
            .aggregate_spec(Arc::new(fsm::fsm_candidate_aggregator(fg, min_support)));
    }
    fractoid
}

/// Levels 1..=3 of the reference path, each from scratch, and the third
/// level's `(classes, groups)` the candidate rule refused.
fn closure_rounds(fg: &FractalGraph, min_support: u64) -> (Vec<Round>, (u64, u64)) {
    let levels: Vec<Fractoid> = (1..=3)
        .map(|rounds| closure_fractoid(fg, min_support, rounds))
        .collect();
    let refused = levels[2].aggregation_result("support").rejected();
    let rounds = levels.iter().map(|f| f.aggregation("support")).collect();
    (rounds, refused)
}

/// The third level's refusals on `fsm_fractoid`'s path.
fn rejected(fg: &FractalGraph, min_support: u64) -> (u64, u64) {
    let third = fsm::fsm_fractoid(fg, min_support, 3);
    third.aggregation_result("support").rejected()
}

/// Levels 1..=3 of Listing 3 without the candidate rule: every class met
/// is staged, and only the final filter drops the infrequent ones.
fn unpruned_rounds(fg: &FractalGraph, min_support: u64) -> Vec<Round> {
    let support = || Arc::new(fsm::fsm_support_aggregator(fg, min_support));
    let mut fractoid: Fractoid = fg.efractoid().expand(1).aggregate_spec(support());
    let mut rounds = vec![fractoid.aggregation("support")];
    for _ in 1..3 {
        fractoid = frequent_before(fractoid)
            .expand(1)
            .aggregate_spec(support());
        rounds.push(fractoid.aggregation("support"));
    }
    rounds
}

/// The rounds of `AppSpec::Fsm` through `run_cluster` on two one-core
/// workers: every round past the first runs in the workers' round runner
/// with the earlier rounds seeded.
fn cluster_rounds(g: &Graph, min_support: u64) -> Vec<Round> {
    let mut handles = Vec::new();
    let (mut streams, mut names) = (Vec::new(), Vec::new());
    for i in 0..2 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handles.push(thread::spawn(move || serve(&listener, 1)));
        streams.push(TcpStream::connect(addr).expect("connect"));
        names.push(format!("w{i}"));
    }
    let app = AppSpec::Fsm {
        min_support,
        max_edges: 3,
    };
    let result = run_cluster(streams, names, DriverConfig::new(app, g.clone())).expect("cluster");
    for h in handles {
        let outcome = h.join().expect("worker thread").expect("serve");
        assert_eq!(outcome, ServeOutcome::Shutdown);
    }
    result.frequent
}

/// Each round as `(code, support)` pairs, for the baseline's shape.
fn supports(rounds: &[Round]) -> HashMap<CanonicalCode, u64> {
    (rounds.iter().flatten())
        .map(|(code, sup)| (code.clone(), sup.support()))
        .collect()
}

fn assert_same_domains(got: &[Round], want: &[Round], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: rounds");
    for (round, (got, want)) in got.iter().zip(want).enumerate() {
        let missing: Vec<_> = want.keys().filter(|c| !got.contains_key(*c)).collect();
        let extra: Vec<_> = got.keys().filter(|c| !want.contains_key(*c)).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "{what}: round {} misses {missing:?} and has {extra:?} besides",
            round + 1
        );
        for (code, sup) in want {
            assert_eq!(got[code].domains(), sup.domains(), "{what}: {code}");
        }
    }
}

#[test]
fn patents_with_37_labels() {
    pruned_fsm_is_exact("patents_like(300, 37)", gen::patents_like(300, 37, 5), 8);
}

#[test]
fn patents_with_12_labels() {
    pruned_fsm_is_exact("patents_like(300, 12)", gen::patents_like(300, 12, 7), 14);
}

#[test]
fn mico_with_6_labels() {
    pruned_fsm_is_exact("mico_like(80, 6)", gen::mico_like(80, 6, 3), 12);
}

/// Holds FSM's three levels on `g` at `min_support`, which has frequent
/// patterns of three edges, against the baseline and the unpruned run on
/// every path.
fn pruned_fsm_is_exact(name: &str, g: Graph, min_support: u64) {
    let want: HashMap<CanonicalCode, u64> = grami_fsm(&g, min_support, 3).into_iter().collect();
    assert!(
        want.keys().any(|c| c.to_pattern().num_edges() == 3),
        "{name}: no frequent pattern of three edges"
    );
    let unpruned = unpruned_rounds(&fg_of(&g, ClusterConfig::local(1, 1)), min_support);
    assert_eq!(supports(&unpruned), want, "{name}: unpruned");

    // The rule calls no frequent pattern infrequent, so no class it refuses
    // is in the frequent set.
    let frequent: HashSet<CanonicalCode> = want.keys().cloned().collect();
    for code in frequent.iter().filter(|c| c.to_pattern().num_edges() > 1) {
        let kept = fsm::may_be_frequent(code, |sub| frequent.contains(&canonical_code(sub)));
        assert!(kept, "{name}: the rule refuses frequent {code}");
    }

    let one = fg_of(&g, ClusterConfig::local(1, 1));
    let pruned = pruned_rounds(&one, min_support);
    assert_same_domains(&pruned, &unpruned, &format!("{name} on local(1, 1)"));
    let (closure, refused) = closure_rounds(&one, min_support);
    assert_same_domains(
        &pruned,
        &closure,
        &format!("{name}: closure on local(1, 1)"),
    );
    assert_eq!(
        rejected(&one, min_support),
        refused,
        "{name} on local(1, 1)"
    );
    assert!(refused.0 > 0, "{name}: the rule refused no class");
    assert_eq!(supports(&closure), want, "{name}: closure");
    assert_eq!(fsm::frequent_map(&fsm::fsm(&one, min_support, 3)), want);
    let reduced = fsm::fsm_with_reduction(&one, min_support, 3);
    assert_eq!(fsm::frequent_map(&reduced), want, "{name}: with reduction");

    let faulty = ClusterConfig::local(2, 2).with_faults(FaultConfig::unit_panic(3, 1));
    let fg = fg_of(&g, faulty);
    let third = fsm::fsm_fractoid(&fg, min_support, 3);
    let retried: u64 = (third.execute().steps.iter())
        .map(|s| s.faults.units_retried)
        .sum();
    assert!(retried > 0, "{name}: no unit was aborted and retried");
    let (classes, groups) = third.aggregation_result("support").rejected();
    assert!(
        classes > 0 && groups >= classes,
        "{name}: the rule refused {classes} classes, {groups} groups"
    );
    let pruned = pruned_rounds(&fg, min_support);
    assert_same_domains(
        &pruned,
        &unpruned,
        &format!("{name} on local(2, 2) with faults"),
    );
    // Which core first meets a refused class depends on the schedule; each
    // refused group is counted once, by the unit that commits it.
    let (closure, refused) = closure_rounds(&fg, min_support);
    assert_same_domains(&pruned, &closure, &format!("{name}: closure with faults"));
    assert_eq!(
        rejected(&fg, min_support).1,
        refused.1,
        "{name}: refused groups"
    );
    assert_eq!(supports(&closure), want, "{name}: closure with faults");
    assert_eq!(fsm::frequent_map(&fsm::fsm(&fg, min_support, 3)), want);
    let reduced = fsm::fsm_with_reduction(&fg, min_support, 3);
    assert_eq!(
        fsm::frequent_map(&reduced),
        want,
        "{name}: reduction with faults"
    );

    let cluster = cluster_rounds(&g, min_support);
    assert_same_domains(&cluster, &unpruned, &format!("{name} through run_cluster"));
    assert_same_domains(&cluster, &closure, &format!("{name}: closure, run_cluster"));
}
