//! The command-line driver behind the `fractal` / `fractal-cli` binaries:
//! run the GPM applications from the command line on
//! graph files or built-in synthetic datasets.
//!
//! ```text
//! fractal-cli <app> [options]
//!
//! apps:
//!   motifs     -k <size> [--plan enumerate|decomposed|auto]
//!   cliques    -k <size> [--kclist]
//!   triangles
//!   fsm        --support <n> [--max-edges <n>] [--reduce]
//!   query      --query <q1..q8|clique<k>|path<k>|cycle<k>>
//!              [--plan enumerate|decomposed|auto]
//!   plan       -k <size> | --query <q>  [--plan mode]
//!              dry run of the pattern-decomposition planner: prints the
//!              compiled counting plan (sub-patterns, matching orders,
//!              inclusion–exclusion terms), its cost estimate against the
//!              enumeration estimate, and which path the mode would take
//!   keywords   --words w1,w2,... [--no-reduce]
//!   trace      -k <size> [--trace-out f.jsonl] [--metrics-out f.json]
//!              [--buckets <n>] [--ring <events>]
//!              runs motifs with the flight recorder on and writes the
//!              JSONL event trace plus the JSON metrics report
//!   worker     --listen <addr> --cores <n> [--link-fault <seed>]
//!              starts a cluster worker process: binds, prints
//!              "LISTENING <addr>" and serves one driver session;
//!              --link-fault arms deterministic delay/duplicate/reorder
//!              injection on serve-mode job links
//!   submit     --app <motifs|cliques|fsm> plus the app's options, and
//!              either --workers host:port,... or --local-cluster <n>
//!              [--plan enumerate|decomposed|auto] [--cores <n>]
//!              [--verify-single] [--per-worker]
//!              [--chaos-kill <i>] [--metrics-out f.json]
//!              runs the job on a real multi-process cluster; --plan is
//!              resolved driver-side (auto compares cost estimates; an
//!              explicit decomposed on a task the planner cannot compile
//!              exits 2 naming the blocker, on every verb that takes it)
//!              and the summary names the execution path taken and why
//!   serve      --listen <addr> (--local-cluster <n> | --workers a,b,...)
//!              [--cores <n>] [--max-running <n>] [--max-queue <n>]
//!              [--tenant-quota <n>] [--snapshot-budget-mb <n>]
//!              [--heartbeat-ms <n>] [--journal <dir>] [--link-fault <seed>]
//!              starts the multi-tenant job server: prints
//!              "SERVING <addr>" and accepts `fractal client` jobs,
//!              multiplexing them over the shared worker pool;
//!              --journal makes admissions/commits/terminals durable so a
//!              restarted daemon resumes incomplete jobs from their last
//!              committed word-set; --link-fault (local-cluster only)
//!              spawns the workers with degraded job links
//!   client <submit|status|cancel|result> --server <addr>
//!              submit: --tenant <t> --priority <p> --snapshot <spec>
//!                      --app <motifs|cliques|fsm> plus app options
//!                      [--token <t>] [--wait] [--verify-single]
//!                      [--metrics-out f.json]
//!              status|cancel|result: --job <id> (result also takes the
//!              submit decoding/verification options)
//!              snapshots are specs: gen:<name>:<n>:<seed> or file:<path>
//!
//! input (one of):
//!   --graph <path.adj>            adjacency-list file
//!   --gen <mico|patents|youtube|wikidata|orkut> [--n <vertices>] [--seed <s>]
//!
//! cluster (simulated, in-process):
//!   --workers <n> --cores <n> [--ws disabled|internal|external|both]
//! ```

use crate::prelude::*;
use fractal_runtime::json::Emitter;
use std::collections::HashMap;

/// Entry point shared by the `fractal` and `fractal-cli` binaries.
pub fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage();
        return;
    }
    let app = args[0].clone();
    if app == "client" {
        // `client <action> [options]`: the action is positional.
        let action = args
            .get(1)
            .cloned()
            .unwrap_or_else(|| die("client requires <submit|status|cancel|result>"));
        let opts = parse_opts(&args[2..]);
        return run_client(&action, &opts);
    }
    let opts = parse_opts(&args[1..]);

    // The cluster-substrate entry points manage their own graphs and
    // processes; dispatch before the single-process setup below.
    match app.as_str() {
        "worker" => return run_worker(&opts),
        "submit" => return run_submit(&opts),
        "serve" => return run_serve(&opts),
        "motifs" | "cliques" | "triangles" | "fsm" | "query" | "plan" | "keywords" | "trace" => {}
        other => die(&format!("unknown app {other:?}")),
    }

    let graph = load_graph(&opts);

    let workers: usize = opt_num(&opts, "workers").unwrap_or(2);
    let cores: usize = opt_num(&opts, "cores").unwrap_or(2);
    let ws = match opts.get("ws").map(|s| s.as_str()) {
        None | Some("both") => WsMode::Both,
        Some("disabled") => WsMode::Disabled,
        Some("internal") => WsMode::InternalOnly,
        Some("external") => WsMode::ExternalOnly,
        Some(other) => die(&format!("unknown --ws {other}")),
    };
    let mut cluster = ClusterConfig::local(workers, cores).with_ws(ws);
    if app == "trace" {
        let ring = opt_num(&opts, "ring").unwrap_or(65_536);
        cluster = cluster.with_trace(TraceConfig {
            enabled: true,
            ring_capacity: ring,
            tap_capacity: opt_num(&opts, "tap").unwrap_or(0),
        });
    }
    let fc = FractalContext::new(cluster);
    let fg = fc.fractal_graph(graph);

    let t0 = std::time::Instant::now();
    match app.as_str() {
        "motifs" => {
            let k = motif_size(&opts);
            let mode = parse_plan_mode(&opts, crate::apps::planned::PlanMode::Enumerate);
            require_compilable(mode, crate::apps::planned::motif_plan_blocker(k, false));
            let (motifs, _, choice) = crate::apps::planned::motifs_planned(&fg, k, false, mode);
            print_motifs(&motifs);
            eprintln!("execution path: {}", choice.summary());
        }
        "cliques" => {
            let crate::net::AppSpec::Kclist { k } = app_spec("cliques", &opts) else {
                unreachable!("asked for cliques");
            };
            let k = k as usize;
            let n = if opts.contains_key("kclist") {
                crate::apps::cliques::count_kclist(&fg, k)
            } else {
                crate::apps::cliques::count(&fg, k)
            };
            println!("{k}-cliques: {n}");
        }
        "triangles" => {
            println!("triangles: {}", crate::apps::cliques::triangles(&fg));
        }
        "fsm" => {
            let crate::net::AppSpec::Fsm {
                min_support: support,
                max_edges,
            } = app_spec("fsm", &opts)
            else {
                unreachable!("asked for fsm");
            };
            let result = if opts.contains_key("reduce") {
                crate::apps::fsm::fsm_with_reduction(&fg, support, max_edges as usize)
            } else {
                crate::apps::fsm::fsm(&fg, support, max_edges as usize)
            };
            println!("frequent patterns (support >= {support}):");
            for p in &result.frequent {
                println!(
                    "{:>9}  {} edges  {}",
                    p.support,
                    p.num_edges,
                    p.code.to_pattern()
                );
            }
        }
        "query" => {
            let qname = opts.get("query").unwrap_or_else(|| die("--query required"));
            let q = resolve_query(qname);
            let mode = parse_plan_mode(&opts, crate::apps::planned::PlanMode::Enumerate);
            require_compilable(mode, crate::apps::planned::query_plan_blocker(&q));
            let (n, _, choice) = crate::apps::planned::count_matches_planned(&fg, &q, mode);
            println!(
                "{qname} ({}v {}e): {n} matches",
                q.num_vertices(),
                q.num_edges()
            );
            eprintln!("execution path: {}", choice.summary());
        }
        "plan" => {
            // Dry run: print the compiled decomposition, its cost estimate,
            // the enumeration estimate and what `--plan auto` would choose.
            use crate::pattern::{CountingPlan, GraphStats};
            let mode = parse_plan_mode(&opts, crate::apps::planned::PlanMode::Auto);
            let stats = GraphStats::of(fg.graph());
            let (choice, plan) = if let Some(qname) = opts.get("query") {
                let q = resolve_query(qname);
                println!(
                    "task: query {qname} ({}v {}e)",
                    q.num_vertices(),
                    q.num_edges()
                );
                let plan = crate::apps::planned::query_plan_blocker(&q)
                    .is_none()
                    .then(|| CountingPlan::plan_pattern(&q, stats));
                (
                    crate::apps::planned::choose_query_path(fg.graph(), &q, mode),
                    plan,
                )
            } else {
                let k = opt_num(&opts, "k").unwrap_or(3);
                println!("task: motifs k={k}");
                let plan = crate::apps::planned::motif_plan_blocker(k, false)
                    .is_none()
                    .then(|| CountingPlan::plan_motifs(k, stats));
                (
                    crate::apps::planned::choose_motifs_path(fg.graph(), k, false, mode),
                    plan,
                )
            };
            match &plan {
                Some(plan) => {
                    print!("{}", plan.describe());
                    let enum_cost = crate::subgraph::expansion_cost_estimate(
                        stats.vertices,
                        stats.avg_degree(),
                        plan.k,
                    );
                    println!(
                        "enumeration estimate: {enum_cost:.3e} words (plan: {:.3e})",
                        plan.total_cost()
                    );
                }
                None => println!("no counting plan: task is out of the planner's scope"),
            }
            println!(
                "choice ({}): {}",
                choice.requested.as_str(),
                choice.summary()
            );
        }
        "keywords" => {
            let words: Vec<&str> = opts
                .get("words")
                .unwrap_or_else(|| die("--words required"))
                .split(',')
                .collect();
            let reduce = !opts.contains_key("no-reduce");
            match crate::apps::keyword::keyword_search_str(&fg, &words, reduce) {
                Some(r) => {
                    println!(
                        "{} covering subgraphs (ran on {} edges, EC {})",
                        r.subgraphs.len(),
                        r.reduced_edges,
                        r.report.total_ec()
                    );
                    for s in r.subgraphs.iter().take(10) {
                        println!("  vertices {:?} edges {:?}", s.vertices, s.edges);
                    }
                }
                None => println!("some keywords are not in the graph's vocabulary"),
            }
        }
        "trace" => {
            let k = motif_size(&opts);
            let buckets = opt_num(&opts, "buckets").unwrap_or(32);
            let (motifs, report) = crate::apps::motifs::motifs_with_report(&fg, k, false);

            let trace_path = opts
                .get("trace-out")
                .cloned()
                .unwrap_or_else(|| "trace.jsonl".to_string());
            let metrics_path = opts
                .get("metrics-out")
                .cloned()
                .unwrap_or_else(|| "metrics.json".to_string());

            let file = std::fs::File::create(&trace_path)
                .unwrap_or_else(|e| die(&format!("cannot create {trace_path}: {e}")));
            let mut out = std::io::BufWriter::new(file);
            report
                .write_trace_jsonl(&mut out)
                .unwrap_or_else(|e| die(&format!("cannot write {trace_path}: {e}")));
            use std::io::Write as _;
            out.flush()
                .unwrap_or_else(|e| die(&format!("cannot flush {trace_path}: {e}")));

            let mut e = Emitter::pretty();
            e.begin_obj();
            e.key("app").str("motifs");
            e.key("k").u64(k as u64);
            e.key("motif_classes").u64(motifs.len() as u64);
            e.key("elapsed_ms")
                .f64(report.elapsed.as_secs_f64() * 1e3, 3);
            e.key("steps").begin_arr();
            for step in &report.steps {
                step.emit_json(&mut e, buckets);
            }
            e.end_arr().end_obj();
            write_metrics(&metrics_path, &e.finish());

            let (int_steals, ext_steals) = report.steals();
            let events: usize = report
                .steps
                .iter()
                .filter_map(|s| s.trace.as_ref())
                .map(|t| t.num_events())
                .sum();
            eprintln!(
                "motifs k={k}: {} pattern classes, {int_steals} internal / \
                 {ext_steals} external steals, {events} trace events",
                motifs.len()
            );
            eprintln!("trace   -> {trace_path}");
        }
        _ => unreachable!("verbs are checked before the graph loads"),
    }
    eprintln!("done in {:.2}s", t0.elapsed().as_secs_f64());
}

fn parse_opts(args: &[String]) -> HashMap<String, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            // Flag-style options have no value.
            let flaggy = matches!(
                key,
                "kclist"
                    | "reduce"
                    | "no-reduce"
                    | "per-worker"
                    | "verify-single"
                    | "wait"
                    | "self-test"
            );
            if flaggy {
                opts.insert(key.to_string(), "true".to_string());
            } else {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| die(&format!("--{key} needs a value")));
                opts.insert(key.to_string(), v.clone());
            }
        } else if let Some(key) = a.strip_prefix('-') {
            i += 1;
            let v = args
                .get(i)
                .unwrap_or_else(|| die(&format!("-{key} needs a value")));
            opts.insert(key.to_string(), v.clone());
        } else {
            die(&format!("unexpected argument {a:?}"));
        }
        i += 1;
    }
    opts
}

/// Parses the `--plan` flag (`enumerate|decomposed|auto`), defaulting to
/// `default` when absent.
fn parse_plan_mode(
    opts: &HashMap<String, String>,
    default: crate::apps::planned::PlanMode,
) -> crate::apps::planned::PlanMode {
    match opts.get("plan") {
        None => default,
        Some(v) => crate::apps::planned::PlanMode::parse(v)
            .unwrap_or_else(|| die(&format!("unknown --plan {v:?} (enumerate|decomposed|auto)"))),
    }
}

/// An explicit `--plan decomposed` is a demand, not a hint: a task the
/// planner cannot compile is refused naming the blocker. Only `auto` may
/// choose enumeration on the caller's behalf.
fn require_compilable(mode: crate::apps::planned::PlanMode, blocker: Option<&str>) {
    if let (crate::apps::planned::PlanMode::Decomposed, Some(why)) = (mode, blocker) {
        die(&format!("--plan decomposed: {why}"));
    }
}

/// Applies `--plan` to a cluster app spec, resolving the mode to a
/// concrete strategy *before* the job ships — every worker must receive
/// either enumerate or decomposed, never `auto`. With the graph in hand
/// (`fractal submit`) `auto` compares cost estimates; without it
/// (`fractal client`, which only holds a snapshot spec) `auto` dies and a
/// concrete mode must be picked. Returns the concrete spec and the
/// summary line naming the execution path and why it was chosen.
fn apply_plan_flag(
    opts: &HashMap<String, String>,
    app: crate::net::AppSpec,
    graph: Option<&crate::graph::Graph>,
) -> (crate::net::AppSpec, Option<String>) {
    use crate::apps::planned::{
        choose_motifs_path, choose_motifs_path_blind, motif_plan_blocker, ExecPath, PlanMode,
    };
    use crate::net::AppSpec;
    let mode = parse_plan_mode(opts, PlanMode::Enumerate);
    match app {
        AppSpec::Motifs { k, use_labels, .. } => {
            require_compilable(mode, motif_plan_blocker(k as usize, use_labels));
            let choice = match graph {
                Some(g) => choose_motifs_path(g, k as usize, use_labels, mode),
                None => {
                    choose_motifs_path_blind(k as usize, use_labels, mode).unwrap_or_else(|| {
                        die(
                            "--plan auto needs the graph's cost estimates (fractal submit \
                             resolves it); client jobs must pick enumerate or decomposed",
                        )
                    })
                }
            };
            let reason = if opts.contains_key("plan") {
                choice.reason.clone()
            } else {
                "default; pass --plan decomposed|auto to engage the planner".to_string()
            };
            let app = AppSpec::Motifs {
                k,
                use_labels,
                decomposed: choice.path == ExecPath::Decomposed,
            };
            let summary = format!("execution path: {} ({reason})", choice.path.as_str());
            (app, Some(summary))
        }
        other => {
            let why = format!("{} has no decomposed path", other.name());
            require_compilable(mode, Some(&why));
            let summary =
                (mode == PlanMode::Auto).then(|| format!("execution path: enumerate ({why})"));
            (other, summary)
        }
    }
}

fn opt_num(opts: &HashMap<String, String>, key: &str) -> Option<usize> {
    opts.get(key).map(|v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("--{key} expects a number, got {v:?}")))
    })
}

/// The input graph `--graph` or `--gen` names (read as a snapshot spec,
/// so `fractal client --verify-single` rebuilds the same graph), announced
/// on stderr.
fn load_graph(opts: &HashMap<String, String>) -> crate::graph::Graph {
    let spec = match opts.get("graph") {
        Some(path) => format!("file:{path}"),
        None => format!(
            "gen:{}:{}:{}",
            opts.get("gen").map_or("mico", String::as_str),
            opt_num(opts, "n").unwrap_or(2000),
            opt_num(opts, "seed").unwrap_or(42)
        ),
    };
    let graph = crate::net::load_snapshot(&spec).unwrap_or_else(|e| die(&e.to_string()));
    eprintln!(
        "graph: {} vertices, {} edges, {} labels",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_vertex_labels()
    );
    graph
}

/// `<shape><k>` with `k` in `min..=MAX_PATTERN_VERTICES`; any other size
/// exits 2 naming the bound (the `Pattern` constructors would panic on it).
fn sized_query(
    name: &str,
    shape: &str,
    min: usize,
    build: fn(usize) -> Pattern,
) -> Option<Pattern> {
    let size = name.strip_prefix(shape)?;
    let max = crate::pattern::pattern::MAX_PATTERN_VERTICES;
    match size.parse::<usize>() {
        Ok(k) if (min..=max).contains(&k) => Some(build(k)),
        _ => die(&format!(
            "bad query {name:?}: {shape}<k> takes k in {min}..={max}"
        )),
    }
}

fn resolve_query(name: &str) -> Pattern {
    for (qn, q) in crate::apps::query::evaluation_queries() {
        if qn == name {
            return q;
        }
    }
    sized_query(name, "clique", 1, Pattern::clique)
        .or_else(|| sized_query(name, "path", 1, Pattern::path))
        .or_else(|| sized_query(name, "cycle", 3, Pattern::cycle))
        .unwrap_or_else(|| {
            die(&format!(
                "unknown query {name:?} (q1..q8, clique<k>, path<k>, cycle<k>)"
            ))
        })
}

/// `fractal worker`: one cluster worker process, serving a single driver
/// session. Prints `LISTENING <addr>` (the contract `LocalCluster` and
/// remote drivers rely on) before blocking in the session loop. With
/// `--link-fault <seed>` the worker arms the deterministic link-degradation
/// envelope (delay/duplicate/reorder) on its serve-mode job links.
fn run_worker(opts: &HashMap<String, String>) {
    let listen = opts
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let cores = opt_num(opts, "cores").unwrap_or(2);
    let link_fault = opt_num(opts, "link-fault")
        .map(|seed| fractal_runtime::LinkFaultConfig::flaky(seed as u64));
    let listener = std::net::TcpListener::bind(listen)
        .unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| die(&format!("cannot resolve bound address: {e}")));
    println!("LISTENING {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match crate::net::serve_with(&listener, cores, link_fault) {
        Ok(outcome) => eprintln!("worker: session ended ({outcome:?})"),
        Err(e) => die(&format!("worker session failed: {e}")),
    }
}

/// The spec of the app called `name` with its size options read from `opts`
/// and checked: the one place `motifs`, `cliques`, `fsm`, `trace`, `submit`
/// and `client submit` get `-k` and `--max-edges` from, so a size no pattern
/// or growth sequence can hold exits 2 naming the bound instead of panicking.
fn app_spec(name: &str, opts: &HashMap<String, String>) -> crate::net::AppSpec {
    use crate::net::AppSpec;
    let size = |key: &str| opt_num(opts, key).map_or(3, |n| u32::try_from(n).unwrap_or(u32::MAX));
    let app = match name {
        "motifs" => AppSpec::Motifs {
            k: size("k"),
            use_labels: false,
            decomposed: false,
        },
        "cliques" | "kclist" => AppSpec::Kclist { k: size("k") },
        "fsm" => AppSpec::Fsm {
            min_support: opt_num(opts, "support").unwrap_or(100) as u64,
            max_edges: size("max-edges"),
        },
        other => die(&format!("unknown --app {other:?} (motifs|cliques|fsm)")),
    };
    if let Some(why) = app.size_blocker() {
        die(&why);
    }
    app
}

/// `-k` of the motif census `opts` describe, checked by [`app_spec`].
fn motif_size(opts: &HashMap<String, String>) -> usize {
    let crate::net::AppSpec::Motifs { k, .. } = app_spec("motifs", opts) else {
        unreachable!("asked for motifs");
    };
    k as usize
}

fn parse_app_spec(opts: &HashMap<String, String>) -> crate::net::AppSpec {
    match opts.get("app") {
        Some(name) => app_spec(name, opts),
        None => die("submit requires --app <motifs|cliques|fsm>"),
    }
}

/// `fractal submit`: drive a job on a real multi-process cluster, either
/// a freshly spawned local fleet (`--local-cluster N`) or pre-started
/// workers (`--workers host:port,...`).
fn run_submit(opts: &HashMap<String, String>) {
    use crate::net::{run_cluster, AppSpec, ChaosKill, DriverConfig};
    let graph = load_graph(opts);
    let (app, plan_summary) = apply_plan_flag(opts, parse_app_spec(opts), Some(&graph));
    if let Some(s) = &plan_summary {
        eprintln!("{s}");
    }
    let cores = opt_num(opts, "cores").unwrap_or(2);
    let local = opt_num(opts, "local-cluster");
    let (cluster, streams, names) = fleet(opts, local, "submit", cores, None);
    let mut config = DriverConfig::new(app, graph.clone());
    if let Some(target) = opt_num(opts, "chaos-kill") {
        let lc = cluster
            .as_ref()
            .unwrap_or_else(|| die("--chaos-kill requires --local-cluster"));
        if target >= names.len() {
            die(&format!("--chaos-kill {target} out of range"));
        }
        config.chaos_kill = Some(ChaosKill {
            target,
            kill: lc.kill_fn(target),
        });
    }

    let t0 = std::time::Instant::now();
    let result = run_cluster(streams, names, config)
        .unwrap_or_else(|e| die(&format!("cluster run failed: {e}")));
    print_result(result.app, result.count, &result.motifs, &result.frequent);
    if let AppSpec::Motifs { k, .. } = result.app {
        eprintln!("motifs k={k}: {} pattern classes", result.motifs.len());
        if let Some(s) = &plan_summary {
            eprintln!("{s}");
        }
    }
    if result.deaths > 0 {
        // One write: the workers share this stderr, and a line written in
        // pieces can be split by theirs.
        let line = format!(
            "recovered from {} worker death(s): {} orphaned words, {} recovery assigns\n",
            result.deaths, result.orphaned_words, result.recovery_assigns
        );
        use std::io::Write as _;
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
    if opts.contains_key("per-worker") {
        eprint!("{}", crate::net::render_per_worker(&result));
    }
    write_report_metrics(opts, &result.report);
    if opts.contains_key("verify-single") {
        let r = &result;
        verify_app(r.app, r.count, &r.motifs, &r.frequent, graph, cores);
    }
    eprintln!("done in {:.2}s", t0.elapsed().as_secs_f64());
}

/// The workers a cluster verb drives, with their names: `local` spawns
/// that many worker processes of this binary with `cores` cores each (kept
/// alive by the returned cluster), `--workers host:port,...` connects to
/// running ones. With a `link_fault` seed (only `serve` passes one: a
/// worker arms it on serve-mode job links alone) every spawned worker
/// degrades those links deterministically (each further mixes the job id
/// into the seed).
fn fleet(
    opts: &HashMap<String, String>,
    local: Option<usize>,
    verb: &str,
    cores: usize,
    link_fault: Option<usize>,
) -> (
    Option<crate::net::LocalCluster>,
    Vec<std::net::TcpStream>,
    Vec<String>,
) {
    if let Some(n) = local {
        if n == 0 {
            die("--local-cluster needs at least 1 worker");
        }
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| die(&format!("cannot resolve own binary: {e}")));
        let lc = crate::net::LocalCluster::spawn_with(n, |_| {
            let mut cmd = std::process::Command::new(&exe);
            let cores = cores.to_string();
            cmd.args(["worker", "--listen", "127.0.0.1:0", "--cores", &cores]);
            if let Some(seed) = link_fault {
                cmd.args(["--link-fault", &seed.to_string()]);
            }
            cmd
        })
        .unwrap_or_else(|e| die(&format!("cannot spawn local cluster: {e}")));
        let streams = lc
            .connect()
            .unwrap_or_else(|e| die(&format!("cannot connect to local workers: {e}")));
        let names = (0..n).map(|i| format!("local{i}")).collect();
        (Some(lc), streams, names)
    } else if let Some(list) = opts.get("workers") {
        let names: Vec<String> = list.split(',').map(str::to_string).collect();
        let streams = names
            .iter()
            .map(|a| {
                std::net::TcpStream::connect(a.as_str())
                    .unwrap_or_else(|e| die(&format!("cannot connect to worker {a}: {e}")))
            })
            .collect();
        (None, streams, names)
    } else {
        die(&format!(
            "{verb} requires --local-cluster N or --workers host:port,..."
        ))
    }
}

/// Prints a motif census, most frequent class first.
fn print_motifs(motifs: &HashMap<crate::pattern::CanonicalCode, u64>) {
    let mut rows: Vec<_> = motifs.iter().collect();
    rows.sort_by_key(|(_, c)| std::cmp::Reverse(**c));
    for (code, count) in rows {
        println!("{count:>12}  {}", code.to_pattern());
    }
}

/// Prints a cluster job's result the way the single-process apps print
/// theirs (shared by `submit` and `client`).
fn print_result(
    app: crate::net::AppSpec,
    count: u64,
    motifs: &HashMap<crate::pattern::CanonicalCode, u64>,
    frequent: &[HashMap<crate::pattern::CanonicalCode, crate::apps::fsm::DomainSupport>],
) {
    use crate::net::AppSpec;
    match app {
        AppSpec::Motifs { .. } => print_motifs(motifs),
        AppSpec::Kclist { k } => println!("{k}-cliques: {count}"),
        AppSpec::Fsm { min_support, .. } => {
            println!("frequent patterns (support >= {min_support}):");
            for (edges, code, support) in frequent_rows(frequent) {
                println!("{support:>9}  {edges} edges  {}", code.to_pattern());
            }
        }
    }
}

/// A cluster FSM result as `(edges, pattern, support)` rows, by round and
/// then by pattern.
fn frequent_rows(
    frequent: &[HashMap<crate::pattern::CanonicalCode, crate::apps::fsm::DomainSupport>],
) -> Vec<(usize, crate::pattern::CanonicalCode, u64)> {
    let mut rows: Vec<_> = frequent
        .iter()
        .enumerate()
        .flat_map(|(r, m)| m.iter().map(move |(c, s)| (r + 1, c.clone(), s.support())))
        .collect();
    rows.sort();
    rows
}

/// Writes a metrics artifact and says where it went.
fn write_metrics(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    eprintln!("metrics -> {path}");
}

/// Writes `report` as `fractal-metrics/1` JSON to `--metrics-out`, if given.
fn write_report_metrics(opts: &HashMap<String, String>, report: &fractal_runtime::JobReport) {
    if let Some(path) = opts.get("metrics-out") {
        let buckets = opt_num(opts, "buckets").unwrap_or(32);
        write_metrics(path, &report.to_json(buckets));
    }
}

/// The bit-identity check shared by `submit --verify-single` and
/// `client … --verify-single`: re-runs `app` single-process on `graph`
/// and compares against the cluster-produced aggregates.
fn verify_app(
    app: crate::net::AppSpec,
    count: u64,
    motifs: &HashMap<crate::pattern::CanonicalCode, u64>,
    frequent: &[HashMap<crate::pattern::CanonicalCode, crate::apps::fsm::DomainSupport>],
    graph: crate::graph::Graph,
    cores: usize,
) {
    use crate::net::AppSpec;
    let fg = FractalContext::new(ClusterConfig::local(1, cores)).fractal_graph(graph);
    match app {
        // The decomposed path verifies against the *enumerator*: this is
        // the cross-strategy bit-identity gate, not just a cluster-vs-
        // single-process one.
        AppSpec::Motifs { k, use_labels, .. } => {
            let single = if use_labels {
                crate::apps::motifs::motifs_labeled(&fg, k as usize)
            } else {
                crate::apps::motifs::motifs(&fg, k as usize)
            };
            if single != *motifs {
                die("verify-single: motif maps differ from single-process run");
            }
        }
        AppSpec::Kclist { k } => {
            let single = crate::apps::cliques::count_kclist(&fg, k as usize);
            if single != count {
                die(&format!(
                    "verify-single: cluster count {count} != single-process {single}"
                ));
            }
        }
        AppSpec::Fsm {
            min_support,
            max_edges,
        } => {
            let single = crate::apps::fsm::fsm(&fg, min_support, max_edges as usize);
            let mut expect: Vec<_> = single
                .frequent
                .iter()
                .map(|p| (p.num_edges, p.code.clone(), p.support))
                .collect();
            expect.sort();
            if frequent_rows(frequent) != expect {
                die("verify-single: frequent pattern sets differ from single-process run");
            }
        }
    }
    println!("VERIFY OK");
}

/// `fractal serve`: the multi-tenant job server daemon. Prints
/// `SERVING <addr>` (the banner serve-smoke and the integration tests
/// parse) and accepts `fractal client` connections until killed.
fn run_serve(opts: &HashMap<String, String>) {
    use crate::net::{ServeConfig, Server};
    let cores = opt_num(opts, "cores").unwrap_or(2);
    let local = opt_num(opts, "local-cluster");
    let (_lc, streams, names) = fleet(opts, local, "serve", cores, opt_num(opts, "link-fault"));

    let mut config = ServeConfig::default();
    if let Some(n) = opt_num(opts, "max-running") {
        config.max_running = n;
    }
    if let Some(n) = opt_num(opts, "max-queue") {
        config.max_queue = n;
    }
    if let Some(n) = opt_num(opts, "tenant-quota") {
        config.max_per_tenant = n;
    }
    if let Some(mb) = opt_num(opts, "snapshot-budget-mb") {
        config.snapshot_budget_bytes = (mb as u64) << 20;
    }
    if let Some(ms) = opt_num(opts, "heartbeat-ms") {
        config.heartbeat_timeout = std::time::Duration::from_millis(ms as u64);
    }
    if let Some(dir) = opts.get("journal") {
        config.journal_dir = Some(std::path::PathBuf::from(dir));
    }

    let listen = opts
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let listener = std::net::TcpListener::bind(listen)
        .unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
    let workers: Vec<_> = streams.into_iter().zip(names).collect();
    let server = Server::bind(listener, workers, config)
        .unwrap_or_else(|e| die(&format!("cannot start server: {e}")));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("cannot resolve bound address: {e}")));
    println!("SERVING {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        die(&format!("server failed: {e}"));
    }
}

/// `fractal client <submit|status|cancel|result>`: talk to a serve daemon.
fn run_client(action: &str, opts: &HashMap<String, String>) {
    use crate::net::Client;
    let server = opts
        .get("server")
        .unwrap_or_else(|| die("--server <addr> required"));
    let mut client = Client::connect(server.as_str())
        .unwrap_or_else(|e| die(&format!("cannot connect to {server}: {e}")));
    match action {
        "submit" => {
            let snapshot = opts
                .get("snapshot")
                .unwrap_or_else(|| die("--snapshot <spec> required"))
                .clone();
            let (app, plan_summary) = apply_plan_flag(opts, parse_app_spec(opts), None);
            if let Some(s) = &plan_summary {
                eprintln!("{s}");
            }
            let tenant = opts.get("tenant").map(String::as_str).unwrap_or("default");
            let priority = opt_num(opts, "priority").unwrap_or(0) as u8;
            // The idempotency token survives an ambiguous submit (daemon
            // crashed after journaling admission): resubmitting the same
            // token returns the original job id instead of double-admitting.
            let token = opts.get("token").cloned().unwrap_or_else(gen_token);
            let job = client
                .submit(tenant, priority, &snapshot, &app, &token)
                .unwrap_or_else(|e| die(&format!("submit rejected: {e}")));
            println!("JOB {job}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            if opts.contains_key("wait") {
                wait_and_report(&mut client, job, app, &snapshot, opts);
            }
        }
        "status" | "cancel" => {
            let job = opt_num(opts, "job").unwrap_or_else(|| die("--job <id> required")) as u64;
            let reply = if action == "status" {
                client.status(job)
            } else {
                client.cancel(job)
            };
            let (kind, detail, value) =
                reply.unwrap_or_else(|e| die(&format!("{action} failed: {e}")));
            println!("job {job}: {kind:?} {detail} {value}");
        }
        "result" => {
            let job = opt_num(opts, "job").unwrap_or_else(|| die("--job <id> required")) as u64;
            let app = parse_app_spec(opts);
            let snapshot = opts.get("snapshot").cloned().unwrap_or_default();
            let result = client
                .fetch_result(job)
                .unwrap_or_else(|e| die(&format!("result failed: {e}")));
            report_result(job, app, &result, &snapshot, 0, opts);
        }
        other => die(&format!(
            "unknown client action {other:?} (submit|status|cancel|result)"
        )),
    }
}

/// Streams a submitted job's events until it terminates, then reports.
/// Uses the resumable wait: transient disconnects (daemon restart, flaky
/// network) are ridden out with capped exponential backoff, resuming the
/// event stream from the last seen sequence number.
fn wait_and_report(
    client: &mut crate::net::Client,
    job: u64,
    app: crate::net::AppSpec,
    snapshot: &str,
    opts: &HashMap<String, String>,
) {
    use crate::net::{JobTerminal, ReconnectPolicy};
    let policy = ReconnectPolicy::default();
    let term = client
        .wait_resumable(job, &policy, |kind, detail, value| {
            eprintln!("job {job}: {kind:?} {detail} {value}");
        })
        .unwrap_or_else(|e| die(&format!("lost server while waiting: {e}")));
    if client.reconnects() > 0 {
        eprintln!(
            "job {job}: stream survived {} reconnect(s)",
            client.reconnects()
        );
    }
    match term {
        JobTerminal::Done { .. } => {
            let result = client
                .fetch_result(job)
                .unwrap_or_else(|e| die(&format!("result fetch failed: {e}")));
            report_result(job, app, &result, snapshot, client.reconnects(), opts);
        }
        JobTerminal::Cancelled => println!("CANCELLED {job}"),
        JobTerminal::Failed(why) => die(&format!("job {job} failed: {why}")),
    }
}

/// Decodes and prints a finished job's result payload; optionally writes
/// the per-job metrics artifact and re-verifies against a single-process
/// run rebuilt from the snapshot spec.
fn report_result(
    job: u64,
    app: crate::net::AppSpec,
    result: &(u64, Vec<u8>, Vec<u8>),
    snapshot: &str,
    reconnects: u64,
    opts: &HashMap<String, String>,
) {
    let (count, agg, report) = result;
    let c = crate::net::Committed::decode(&app, *count, agg)
        .unwrap_or_else(|e| die(&format!("bad {} result blob: {e}", app.name())));
    if let crate::net::AppSpec::Motifs { k, .. } = app {
        eprintln!("job {job} motifs k={k}: {} pattern classes", c.motifs.len());
    }
    print_result(app, c.count, &c.motifs, &c.frequent);
    if opts.contains_key("metrics-out") {
        let mut decoded = crate::net::blob::decode_report(report)
            .unwrap_or_else(|e| die(&format!("bad report blob: {e}")));
        // The daemon cannot see client-side reconnects; stamp them here so
        // the metrics artifact carries the full fault picture.
        decoded.faults.client_reconnects += reconnects;
        write_report_metrics(opts, &decoded);
    }
    if opts.contains_key("verify-single") {
        if snapshot.is_empty() {
            die("--verify-single needs --snapshot to rebuild the graph");
        }
        let graph = crate::net::load_snapshot(snapshot).unwrap_or_else(|e| die(&format!("{e}")));
        let cores = opt_num(opts, "cores").unwrap_or(2);
        verify_app(app, c.count, &c.motifs, &c.frequent, graph, cores);
    }
    println!("RESULT {job} {}", c.count);
}

fn usage() {
    println!(
        "fractal-cli <motifs|cliques|triangles|fsm|query|keywords|plan|trace|worker|submit|serve|client> [options]\n\
         input:  --graph <path.adj> | --gen <mico|patents|youtube|wikidata|orkut> [--n N] [--seed S]\n\
         app:    -k <size> [--kclist] | --support N [--max-edges N] [--reduce]\n\
                 | --query <q1..q8|clique<k>|path<k>|cycle<k>> | --words a,b,c [--no-reduce]\n\
         plan:   motifs/query take --plan <enumerate|decomposed|auto> to pick the\n\
                 execution strategy (decomposed on a task the planner cannot\n\
                 compile is an error; only auto may choose); the `plan` verb\n\
                 (-k N | --query q) prints the compiled decomposition, cost\n\
                 estimates and the auto choice\n\
         trace:  -k <size> [--trace-out f.jsonl] [--metrics-out f.json] [--buckets N] [--ring N]\n\
         cluster (simulated): --workers N --cores N [--ws disabled|internal|external|both]\n\
         worker: --listen <addr> --cores N [--link-fault seed]\n\
         submit: --app <motifs|cliques|fsm> (--local-cluster N | --workers host:port,...)\n\
                 [--plan enumerate|decomposed|auto] [--cores N] [--verify-single]\n\
                 [--per-worker] [--chaos-kill i] [--metrics-out f.json]\n\
         serve:  --listen <addr> (--local-cluster N | --workers host:port,...) [--cores N]\n\
                 [--max-running N] [--max-queue N] [--tenant-quota N]\n\
                 [--snapshot-budget-mb N] [--heartbeat-ms N]\n\
                 [--journal dir] [--link-fault seed]\n\
         client: <submit|status|cancel|result> --server <addr>\n\
                 submit: --tenant t --priority p --snapshot <gen:name:n:seed|file:path>\n\
                         --app <motifs|cliques|fsm> + app options\n\
                         [--token t] [--wait] [--verify-single] [--metrics-out f.json]\n\
                 status|cancel|result: --job <id>"
    );
}

/// Generates a default idempotency token for `client submit` when the
/// caller did not pass `--token`: unique enough across processes and
/// retries that distinct submits never collide, while an explicit
/// `--token` lets scripted retries stay idempotent.
fn gen_token() -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("cli-{}-{now:x}", std::process::id())
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
