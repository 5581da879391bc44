//! CI perf-smoke probe: runs the kernel-gated workloads (KClist clique
//! counting and generic motif enumeration) and a three-round FSM job (the
//! only leg on the edge-induced enumerator) on a fixed Mico-like graph, plus
//! the depth-bound 5-motif benchmark through *both* execution paths
//! (enumerate vs. decomposed planner) on a sparser Patents-like graph, and
//! emits their **work counters** as one JSON document.
//!
//! Two legs:
//!
//! * `deterministic` — one worker, two cores, work stealing disabled. Every
//!   counter here (result count, extension cost, units, kernel-path call
//!   mix, elements scanned) is a pure function of the code, so the CI gate
//!   compares them against the checked-in baseline with zero or tight
//!   tolerances. Wall-clock times are included for humans but never gated.
//! * `parallel` — two workers × two cores with full hierarchical work
//!   stealing. Scheduling-dependent metrics (steals, imbalance,
//!   utilization) land here and are gated only by loose absolute bounds.
//!
//! Usage: `perf_smoke [--out <path>]` (default: stdout).

#![forbid(unsafe_code)]

use fractal_apps::planned::PlanMode;
use fractal_core::{ExecutionReport, FractalContext, FractalGraph};
use fractal_graph::gen;
use fractal_runtime::json::Emitter;
use fractal_runtime::stats::emit_fields;
use fractal_runtime::{ClusterConfig, FaultStats, PlannerStats, WsMode};

const VERTICES: usize = 700;
const LABELS: u32 = 4;
const SEED: u64 = 42;
const CLIQUE_K: usize = 4;
const MOTIF_K: usize = 3;
// A support at which FSM on the Mico-like graph finds frequent patterns of
// one, two and three edges: three rounds, so the edge enumerator runs at
// every depth the FSM workloads use.
const FSM_SUPPORT: u64 = 160;
const FSM_MAX_EDGES: usize = 3;
// The 5-motif pair runs on a sparser citation-shaped graph: depth-5
// enumeration on the dense Mico-like instance would dominate CI wall-clock,
// while this size keeps the enumerate leg measurable and the decomposed leg
// clearly ahead of it.
const MOTIF_K5: usize = 5;
const K5_VERTICES: usize = 220;

fn fractal_graph(config: ClusterConfig) -> FractalGraph {
    let fc = FractalContext::new(config);
    fc.fractal_graph(gen::mico_like(VERTICES, LABELS, SEED))
}

fn k5_fractal_graph(config: ClusterConfig) -> FractalGraph {
    let fc = FractalContext::new(config);
    fc.fractal_graph(gen::patents_like(K5_VERTICES, LABELS, SEED))
}

/// Deterministic work counters of one workload run (single step).
fn work_counters(name: &str, count: u64, report: &ExecutionReport, e: &mut Emitter) {
    let step = &report.steps[0];
    let (km, kg, kb, ks) = step.kernel_totals();
    e.key(name).begin_obj();
    e.key("count").u64(count);
    e.key("total_ec").u64(step.total_ec());
    e.key("total_units")
        .u64(step.cores.iter().map(|(_, s)| s.units).sum());
    e.key("kernel_merge").u64(km);
    e.key("kernel_gallop").u64(kg);
    e.key("kernel_bitset").u64(kb);
    e.key("kernel_scanned").u64(ks);
    e.key("arena_peak_bytes").u64(step.arena_peak_bytes());
    emit_fields(PlannerStats::FIELDS, &step.planner, e);
    e.key("elapsed_ms")
        .f64(report.elapsed.as_secs_f64() * 1e3, 3);
    e.end_obj();
}

/// Work counters of a multi-round FSM job, summed over every step of every
/// round. The gate pins `count` (frequent patterns), `total_ec` and
/// `total_units`; the kernel counters sit under `recorded`, which the gate
/// and its baseline do not read (the edge enumerator does not owe the kernel
/// layer any particular call mix).
fn fsm_counters(name: &str, result: &fractal_apps::fsm::FsmResult, e: &mut Emitter) {
    let steps = || result.reports.iter().flat_map(|r| &r.steps);
    let kernels = steps().fold((0, 0, 0, 0), |acc, s| {
        let (km, kg, kb, ks) = s.kernel_totals();
        (acc.0 + km, acc.1 + kg, acc.2 + kb, acc.3 + ks)
    });
    e.key(name).begin_obj();
    e.key("count").u64(result.frequent.len() as u64);
    e.key("rounds").u64(result.reports.len() as u64);
    e.key("total_ec").u64(steps().map(|s| s.total_ec()).sum());
    e.key("total_units")
        .u64(steps().flat_map(|s| &s.cores).map(|(_, s)| s.units).sum());
    e.key("recorded").inline().begin_obj();
    e.key("kernel_merge").u64(kernels.0);
    e.key("kernel_gallop").u64(kernels.1);
    e.key("kernel_bitset").u64(kernels.2);
    e.key("kernel_scanned").u64(kernels.3);
    e.end_obj();
    let elapsed: f64 = result.reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    e.key("elapsed_ms").f64(elapsed * 1e3, 3);
    e.end_obj();
}

/// Scheduling-dependent balance metrics of one workload run.
fn balance_counters(name: &str, count: u64, report: &ExecutionReport, e: &mut Emitter) {
    let step = &report.steps[0];
    let (int_steals, ext_steals) = step.steals();
    e.key(name).begin_obj();
    e.key("count").u64(count);
    e.key("internal_steals").u64(int_steals);
    e.key("external_steals").u64(ext_steals);
    e.key("imbalance").f64(step.imbalance(), 6);
    e.key("utilization").f64(step.utilization(), 6);
    e.key("steal_overhead").f64(step.steal_overhead(), 6);
    e.key("elapsed_ms")
        .f64(report.elapsed.as_secs_f64() * 1e3, 3);
    e.end_obj();
}

/// Recovery counters summed over all steps of the given reports. Both
/// perf-smoke legs run fault-free, so the CI gate asserts every one of
/// these is zero — any nonzero value means the fault machinery leaked into
/// the fault-free hot path (spurious retries, watchdog trips, …).
/// `net_units` rides along for the same reason: a single-process run has
/// no network substrate attached, so any externally pulled unit means the
/// cluster hooks leaked into plain execution.
fn fault_counters(reports: &[&ExecutionReport], e: &mut Emitter) {
    let mut sum = FaultStats::default();
    let mut net_units = 0u64;
    for step in reports.iter().flat_map(|r| &r.steps) {
        sum.absorb(&step.faults);
        net_units += step.net_units();
    }
    e.key("faults").begin_obj();
    for f in FaultStats::FIELDS {
        e.key(f.name).u64((f.get)(&sum));
        // `net_units` keeps its place in the fractal-perf-smoke/1 key order.
        if f.name == "tap_drained" {
            e.key("net_units").u64(net_units);
        }
    }
    e.end_obj();
}

/// The `graph` / `graph_k5` descriptor objects.
fn graph_descriptor(key: &str, generator: &str, vertices: usize, e: &mut Emitter) {
    e.key(key).inline().begin_obj();
    e.key("generator").str(generator);
    e.key("vertices").u64(vertices as u64);
    e.key("labels").u64(LABELS as u64);
    e.key("seed").u64(SEED);
    e.end_obj();
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = Some(args.next().expect("--out requires a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_smoke [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    // Deterministic leg: no stealing, fixed root striding.
    let det = fractal_graph(ClusterConfig::local(1, 2).with_ws(WsMode::Disabled));
    let (cliques, clique_report) = fractal_apps::cliques::count_kclist_with_report(&det, CLIQUE_K);
    let (motif_hist, motif_report) = fractal_apps::motifs::motifs_with_report(&det, MOTIF_K, false);
    let motif_total: u64 = motif_hist.values().sum();
    let fsm = fractal_apps::fsm::fsm(&det, FSM_SUPPORT, FSM_MAX_EDGES);
    assert_eq!(
        (fsm.reports.len(), fsm.max_size()),
        (FSM_MAX_EDGES, FSM_MAX_EDGES),
        "the FSM leg must mine three rounds"
    );

    // Depth-bound 5-motif benchmark: the same task through both execution
    // paths. Bit-identity between the histograms is asserted here so a
    // planner regression fails the smoke run itself, before the gate.
    let k5 = k5_fractal_graph(ClusterConfig::local(1, 2).with_ws(WsMode::Disabled));
    let (k5_enum_hist, k5_enum_report, _) =
        fractal_apps::planned::motifs_planned(&k5, MOTIF_K5, false, PlanMode::Enumerate);
    let (k5_dec_hist, k5_dec_report, _) =
        fractal_apps::planned::motifs_planned(&k5, MOTIF_K5, false, PlanMode::Decomposed);
    assert_eq!(
        k5_enum_hist, k5_dec_hist,
        "decomposed 5-motif counts must be bit-identical to the enumerator"
    );
    let k5_total: u64 = k5_enum_hist.values().sum();

    // Parallel leg: full hierarchical work stealing across two workers.
    let par = fractal_graph(ClusterConfig::local(2, 2));
    let (par_cliques, par_report) = fractal_apps::cliques::count_kclist_with_report(&par, CLIQUE_K);
    assert_eq!(par_cliques, cliques, "parallel leg must count identically");

    let mut e = Emitter::pretty();
    e.begin_obj();
    e.key("schema").str("fractal-perf-smoke/1");
    graph_descriptor("graph", "mico_like", VERTICES, &mut e);
    graph_descriptor("graph_k5", "patents_like", K5_VERTICES, &mut e);
    e.key("deterministic").begin_obj();
    for (name, count, report) in [
        (format!("kclist_k{CLIQUE_K}"), cliques, &clique_report),
        (format!("motifs_k{MOTIF_K}"), motif_total, &motif_report),
        (
            format!("motifs_k{MOTIF_K5}_enumerate"),
            k5_total,
            &k5_enum_report,
        ),
        (
            format!("motifs_k{MOTIF_K5}_decomposed"),
            k5_total,
            &k5_dec_report,
        ),
    ] {
        work_counters(&name, count, report, &mut e);
    }
    fsm_counters(&format!("fsm_s{FSM_SUPPORT}"), &fsm, &mut e);
    let mut fault_free = vec![
        &clique_report,
        &motif_report,
        &k5_enum_report,
        &k5_dec_report,
    ];
    fault_free.extend(&fsm.reports);
    fault_counters(&fault_free, &mut e);
    e.end_obj();
    e.key("parallel").begin_obj();
    balance_counters(
        &format!("kclist_k{CLIQUE_K}"),
        par_cliques,
        &par_report,
        &mut e,
    );
    fault_counters(&[&par_report], &mut e);
    e.end_obj().end_obj();
    let json = e.finish();

    match out_path {
        Some(p) => std::fs::write(&p, &json).unwrap_or_else(|e| panic!("write {p}: {e}")),
        None => print!("{json}"),
    }
}
