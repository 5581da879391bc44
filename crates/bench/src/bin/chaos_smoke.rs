//! CI chaos gate: runs the three acceptance workloads (motif counting,
//! KClist clique counting, FSM) under every fault kind of the chaos
//! matrix — worker kill, unit panic, dropped steal requests, corrupted
//! stolen units — across many injection seeds, and asserts every result
//! is **bit-identical** to the fault-free run.
//!
//! A final *self-test* leg re-runs the worker-kill scenario with recovery
//! deliberately sabotaged (`FaultConfig::with_sabotaged_recovery`): units
//! are accounted but never re-executed. The gate demands that this leg
//! *fails* its own exactness check — proving the harness actually detects
//! a broken recovery path, not just the absence of crashes.
//!
//! A `cluster-kill` leg runs the motif workload on a real 3-process local
//! cluster (crates/net) and SIGKILLs one worker process mid-round — the
//! process-level analogue of the in-process `worker-kill` fault — and
//! demands the driver's orphan/recovery path still yields bit-identical
//! results.
//!
//! Emits a `fractal-chaos-smoke/1` JSON summary and exits nonzero on any
//! violation.
//!
//! Usage: `chaos_smoke [--seeds <n>] [--out <path>]` (default: 6 seeds,
//! stdout).

use fractal_apps::{cliques, fsm, motifs};
use fractal_core::{FractalContext, FractalGraph};
use fractal_graph::{gen, Graph};
use fractal_net::{run_cluster, AppSpec, ChaosKill, DriverConfig, LocalCluster};
use fractal_runtime::json::Emitter;
use fractal_runtime::wire::fnv1a64;
use fractal_runtime::{ClusterConfig, FaultConfig, FaultStats};
use std::process::Command;

const MOTIF_K: usize = 3;
const CLIQUE_K: usize = 4;
const FSM_SUPPORT: u64 = 12;
const FSM_EDGES: usize = 2;

fn fg_of(g: &Graph, cfg: ClusterConfig) -> FractalGraph {
    FractalContext::new(cfg).fractal_graph(g.clone())
}

/// Two workers × two cores: the smallest shape where every fault kind is
/// meaningful (a kill needs a survivor, external steals need two workers).
fn base_cfg() -> ClusterConfig {
    ClusterConfig::local(2, 2).with_latency_us(0)
}

/// The chaos matrix's fault kinds (see EXPERIMENTS.md). `panic_depth` 1 is
/// the depth every dispatched unit registers; the low kill threshold kills
/// the worker while it still owns unfinished root-partition work.
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

/// One workload: a fault-free reference fingerprint plus a runner that
/// re-computes the fingerprint and recovery counters under a fault plan.
/// Fingerprints fold every result element (keys and values), so a single
/// lost or double-counted subgraph anywhere changes them.
struct Workload {
    name: &'static str,
    graph: Graph,
    run: fn(&FractalGraph) -> (u64, FaultStats),
}

fn fingerprint(items: impl IntoIterator<Item = u64>) -> u64 {
    // FNV-1a over the sorted element stream: order-independent input is
    // sorted first so the fingerprint is deterministic across schedules.
    let mut v: Vec<u64> = items.into_iter().collect();
    v.sort_unstable();
    fnv1a64(&v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>())
}

fn sum_faults(reports: &[fractal_runtime::JobReport]) -> FaultStats {
    let mut s = FaultStats::default();
    for r in reports {
        s.absorb(&r.faults);
    }
    s
}

/// One row of the `scenarios` array.
fn scenario(e: &mut Emitter, workload: &str, fault: &str, seed: u64, exact: bool, f: &FaultStats) {
    e.inline().begin_obj();
    e.key("workload").str(workload);
    e.key("fault").str(fault);
    e.key("seed").u64(seed);
    e.key("exact").bool(exact);
    e.key("faults_injected").u64(f.faults_injected);
    e.key("units_retried").u64(f.units_retried);
    e.key("units_reexecuted").u64(f.units_reexecuted);
    e.key("watchdog_trips").u64(f.watchdog_trips);
    e.key("units_lost").u64(f.units_lost);
    e.end_obj();
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "motifs_k3",
            graph: gen::mico_like(220, 4, 7),
            run: |fg| {
                let (hist, report) = motifs::motifs_with_report(fg, MOTIF_K, false);
                let fp = fingerprint(
                    hist.iter()
                        .map(|(code, &n)| fingerprint(code.0.iter().map(|&b| b as u64)) ^ n),
                );
                (fp, sum_faults(&report.steps))
            },
        },
        Workload {
            name: "kclist_k4",
            graph: gen::mico_like(250, 4, 11),
            run: |fg| {
                let (count, report) = cliques::count_kclist_with_report(fg, CLIQUE_K);
                (count, sum_faults(&report.steps))
            },
        },
        Workload {
            name: "fsm",
            graph: gen::patents_like(110, 4, 23),
            run: |fg| {
                let result = fsm::fsm(fg, FSM_SUPPORT, FSM_EDGES);
                let fp = fingerprint(
                    fsm::frequent_map(&result)
                        .iter()
                        .map(|(code, &sup)| fingerprint(code.0.iter().map(|&b| b as u64)) ^ sup),
                );
                let reports: Vec<_> = result.reports.into_iter().flat_map(|r| r.steps).collect();
                (fp, sum_faults(&reports))
            },
        },
    ]
}

/// Hidden worker mode: `chaos_smoke __worker` re-executed by
/// [`cluster_kill`] turns this process into a fractal-net worker. Prints
/// the `LISTENING <addr>` line [`LocalCluster::spawn_with`] waits for.
fn cluster_worker_main() -> ! {
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    println!("LISTENING {}", listener.local_addr().expect("addr"));
    std::io::stdout().flush().expect("flush stdout");
    let _ = fractal_net::serve(&listener, 2);
    std::process::exit(0);
}

/// Runs the motif workload on a real 3-process cluster, SIGKILLing worker
/// `seed % 3` once it has made progress in round 0. Returns the result
/// fingerprint plus (deaths, orphaned words, recovery assigns).
fn cluster_kill(seed: u64) -> Result<(u64, u64, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let lc = LocalCluster::spawn_with(3, |_| {
        let mut cmd = Command::new(&exe);
        cmd.arg("__worker");
        cmd
    })
    .map_err(|e| format!("spawn workers: {e}"))?;
    let streams = lc.connect().map_err(|e| format!("connect: {e}"))?;
    let names = (0..3).map(|i| format!("chaos{i}")).collect();
    let mut config = DriverConfig::new(
        AppSpec::Motifs {
            k: MOTIF_K as u32,
            use_labels: false,
            decomposed: false,
        },
        gen::mico_like(220, 4, 7),
    );
    let target = (seed as usize) % 3;
    config.chaos_kill = Some(ChaosKill {
        target,
        kill: lc.kill_fn(target),
    });
    let result = run_cluster(streams, names, config).map_err(|e| format!("cluster run: {e}"))?;
    let fp = fingerprint(
        result
            .motifs
            .iter()
            .map(|(code, &n)| fingerprint(code.0.iter().map(|&b| b as u64)) ^ n),
    );
    Ok((
        fp,
        result.deaths,
        result.orphaned_words,
        result.recovery_assigns,
    ))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("__worker") {
        cluster_worker_main();
    }
    let mut out_path: Option<String> = None;
    let mut num_seeds: u64 = 6;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = Some(args.next().expect("--out requires a path")),
            "--seeds" => {
                num_seeds = args
                    .next()
                    .expect("--seeds requires a count")
                    .parse()
                    .expect("--seeds requires an integer")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: chaos_smoke [--seeds <n>] [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    let mut e = Emitter::pretty();
    e.begin_obj();
    e.key("schema").str("fractal-chaos-smoke/1");
    e.key("seeds").u64(num_seeds);
    e.key("scenarios").begin_arr();

    let mut failures: Vec<String> = Vec::new();

    for wl in workloads() {
        let (want, base_faults) = (wl.run)(&fg_of(&wl.graph, base_cfg()));
        if base_faults != FaultStats::default() {
            failures.push(format!(
                "{}: fault-free run reported nonzero recovery counters: {base_faults:?}",
                wl.name
            ));
        }
        for seed in 1..=num_seeds {
            for (kind, plan) in fault_plans(seed) {
                let fg = fg_of(&wl.graph, base_cfg().with_faults(plan));
                let (got, faults) = (wl.run)(&fg);
                let exact = got == want;
                if !exact {
                    failures.push(format!(
                        "{} under {kind} seed {seed}: result diverged \
                         (got {got:#x}, want {want:#x}; {faults:?})",
                        wl.name
                    ));
                }
                if faults.units_lost != 0 {
                    failures.push(format!(
                        "{} under {kind} seed {seed}: {} units lost",
                        wl.name, faults.units_lost
                    ));
                }
                scenario(&mut e, wl.name, kind, seed, exact, &faults);
            }
        }
    }

    // Real-process leg: same motif workload, but the kill is an actual
    // SIGKILL of one worker process in a 3-process TCP cluster. Exactness
    // here proves the driver's orphan/recovery path end-to-end, not just
    // the in-process simulation. One run per seed, rotating the victim.
    {
        let wl = &workloads()[0];
        let (want, _) = (wl.run)(&fg_of(&wl.graph, base_cfg()));
        for seed in 1..=num_seeds {
            let (exact, deaths, orphaned, recoveries) = match cluster_kill(seed) {
                Ok((got, deaths, orphaned, recoveries)) => {
                    if got != want {
                        failures.push(format!(
                            "{} under cluster-kill seed {seed}: result diverged \
                             (got {got:#x}, want {want:#x})",
                            wl.name
                        ));
                    }
                    if deaths == 0 {
                        failures.push(format!(
                            "{} under cluster-kill seed {seed}: no worker died — \
                             the process kill never fired",
                            wl.name
                        ));
                    }
                    (got == want, deaths, orphaned, recoveries)
                }
                Err(e) => {
                    failures.push(format!("{} under cluster-kill seed {seed}: {e}", wl.name));
                    (false, 0, 0, 0)
                }
            };
            // The driver's death / orphan / recovery tallies ride in the
            // slots of their in-process analogues.
            let tallies = FaultStats {
                faults_injected: deaths,
                units_retried: orphaned,
                units_reexecuted: recoveries,
                watchdog_trips: deaths,
                ..Default::default()
            };
            scenario(&mut e, wl.name, "cluster-kill", seed, exact, &tallies);
        }
    }

    // Self-test: with recovery sabotaged the gate MUST observe a failure —
    // lost units on every seed, and a diverged result on at least one
    // (each lost unit contributes zero-or-more results, so divergence is
    // only guaranteed across the seed set, not per seed).
    let wl = &workloads()[0];
    let (want, _) = (wl.run)(&fg_of(&wl.graph, base_cfg()));
    let mut sabotage_lost = true;
    let mut sabotage_diverged = false;
    for seed in 1..=num_seeds {
        let plan = FaultConfig::worker_kill(seed, 1)
            .with_kill_after_units(2)
            .with_sabotaged_recovery();
        let fg = fg_of(&wl.graph, base_cfg().with_faults(plan));
        let (got, faults) = (wl.run)(&fg);
        sabotage_lost &= faults.units_lost > 0;
        sabotage_diverged |= got != want;
    }
    if !sabotage_lost {
        failures.push(
            "self-test: sabotaged recovery lost no units — the kill scenario is not \
             exercising recovery at all"
                .to_string(),
        );
    }
    if !sabotage_diverged {
        failures.push(
            "self-test: sabotaged recovery still produced exact results on every seed — \
             the exactness check cannot detect broken recovery"
                .to_string(),
        );
    }
    e.end_arr();
    e.key("self_test").inline().begin_obj();
    e.key("units_lost_every_seed").bool(sabotage_lost);
    e.key("diverged_some_seed").bool(sabotage_diverged);
    e.end_obj();
    e.key("failures").begin_arr();
    for f in &failures {
        e.str(f);
    }
    e.end_arr().end_obj();
    let json = e.finish();

    match out_path {
        Some(p) => std::fs::write(&p, &json).unwrap_or_else(|e| panic!("write {p}: {e}")),
        None => print!("{json}"),
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("chaos violation: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "chaos gate: all scenarios exact across {num_seeds} seeds; self-test detected sabotage"
    );
}
