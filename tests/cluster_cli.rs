//! End-to-end CLI tests for the multi-process cluster path: `fractal
//! submit --local-cluster 3` spawns real worker processes over localhost
//! TCP and `--verify-single` re-runs the job in-process, dying unless the
//! results are bit-identical, for motifs, KClist and FSM. The chaos
//! variant SIGKILLs each worker in turn mid-job and demands the same
//! exactness from the recovery path. The
//! remaining tests are the refusal table: every verb taking `--plan` refuses
//! an explicit `decomposed` on a task the planner cannot compile, naming the
//! blocker, and every verb taking a pattern size refuses one outside what a
//! pattern can hold, naming the bound.

use fractal::runtime::json;
use std::process::{Command, Output};

/// Runs `fractal submit` with space-separated `args`.
fn submit(args: &str) -> Output {
    fractal(&format!("submit {args}"))
}

fn assert_verified(out: &Output) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "submit failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("VERIFY OK"),
        "missing VERIFY OK\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

/// Runs a verified `submit` with `--metrics-out` and returns its output
/// and the merged metrics JSON.
fn submit_with_metrics(args: &str, name: &str) -> (Output, json::Value) {
    let path = std::env::temp_dir().join(format!("fractal-{name}-{}.json", std::process::id()));
    let out = submit(&format!("{args} --metrics-out {}", path.display()));
    assert_verified(&out);
    let text = std::fs::read_to_string(&path).expect("read merged metrics");
    std::fs::remove_file(&path).expect("remove merged metrics");
    let metrics = json::parse(&text).expect("merged metrics are JSON");
    assert_eq!(
        metrics.get("schema").and_then(json::Value::as_str),
        Some("fractal-metrics/1")
    );
    (out, metrics)
}

fn metric(metrics: &json::Value, key: &str) -> u64 {
    metrics
        .get(key)
        .and_then(json::Value::as_u64)
        .unwrap_or_else(|| panic!("merged metrics lack {key}"))
}

#[test]
fn submit_local_cluster_matches_single_process() {
    let (out, metrics) = submit_with_metrics(
        "--app motifs -k 3 --gen mico --n 220 --seed 7 --local-cluster 3 --verify-single \
         --per-worker",
        "motifs-metrics",
    );
    assert_eq!(metric(&metrics, "workers"), 3);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("local2"), "no per-worker table:\n{stderr}");
}

#[test]
fn submit_survives_worker_kill_with_identical_results() {
    for target in 0..3 {
        let (out, metrics) = submit_with_metrics(
            &format!(
                "--app motifs -k 3 --gen mico --n 300 --seed 7 --local-cluster 3 \
                 --chaos-kill {target} --verify-single"
            ),
            &format!("kill{target}-metrics"),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("recovered from 1 worker death(s)"),
            "kill of worker {target} never fired:\n{stderr}"
        );
        // The dead worker's words reach the survivors as orphans, which
        // they pull over the network.
        assert!(metric(&metrics, "net_units") > 0, "worker {target}");
        // The job was assigned three workers, whichever of them died.
        assert_eq!(metric(&metrics, "workers"), 3, "worker {target}");
    }
}

#[test]
fn submit_kclist_local_cluster_matches_single_process() {
    assert_verified(&submit(
        "--app cliques -k 4 --gen mico --n 250 --seed 11 --local-cluster 3 --verify-single",
    ));
}

#[test]
fn submit_fsm_local_cluster_matches_single_process() {
    assert_verified(&submit(
        "--app fsm --support 12 --max-edges 2 --gen patents --n 110 --seed 23 \
         --local-cluster 3 --verify-single",
    ));
}

fn assert_refused_naming(out: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains(reason), "reason not named:\n{stderr}");
}

fn assert_refused(out: &Output, blocker: &str) {
    assert_refused_naming(out, "--plan decomposed");
    assert_refused_naming(out, blocker);
}

fn fractal(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fractal"))
        .args(args.split(' '))
        .output()
        .expect("run fractal")
}

/// An unknown verb is refused by name before any graph is built.
#[test]
fn unknown_verb_is_refused_before_loading_a_graph() {
    let out = fractal("nosuchverb");
    assert_refused_naming(&out, "unknown app \"nosuchverb\"");
    let printed = [out.stdout, out.stderr].concat();
    let printed = String::from_utf8_lossy(&printed);
    assert!(
        !printed.contains("graph:"),
        "built a graph first:\n{printed}"
    );
}

#[test]
fn explicit_decomposed_on_uncompilable_task_is_refused_by_name() {
    for (task, blocker) in [
        ("motifs -k 6", "sizes 1..=5"),
        ("submit --local-cluster 1 --app motifs -k 6", "sizes 1..=5"),
        (
            "submit --local-cluster 1 --app cliques -k 3",
            "kclist has no",
        ),
    ] {
        let out = fractal(&format!("{task} --gen mico --n 20 --plan decomposed"));
        assert_refused(&out, blocker);
    }
    // `auto` is the one mode that may choose the enumerator itself.
    let auto = fractal("motifs -k 6 --gen mico --n 20 --plan auto");
    let stderr = String::from_utf8_lossy(&auto.stderr);
    assert!(auto.status.success() && stderr.contains("execution path: enumerate"));
}

#[test]
fn out_of_range_query_sizes_are_refused_naming_the_bound() {
    // `Pattern::{path,cycle,clique}` panic on these sizes; the CLI must
    // refuse them first, on every plan mode (the default is the enumerator).
    for verb in ["query", "plan"] {
        for (name, bound) in [
            ("path0", "path<k> takes k in 1..=32"),
            ("cycle2", "cycle<k> takes k in 3..=32"),
            ("clique40", "clique<k> takes k in 1..=32"),
        ] {
            for plan in ["", " --plan decomposed"] {
                let out = fractal(&format!("{verb} --query {name} --gen mico --n 20{plan}"));
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{verb} {name}:\n{stderr}");
                assert!(stderr.contains(bound), "bound not named:\n{stderr}");
            }
        }
    }
    // The lower edges of the ranges still run.
    for name in ["path1", "cycle3", "clique1"] {
        let out = fractal(&format!("query --query {name} --gen mico --n 20"));
        assert!(out.status.success(), "{name} refused");
    }
    // A subgraph of more than 32 vertices panics the core thread that names
    // its pattern, which fails the job with that panic: every verb that
    // grows subgraphs to a size given on the command line refuses such a
    // size first.
    let (k, max_edges) = ("motifs takes k in 1..=32", "fsm takes max-edges in 0..=31");
    for (task, bound) in [
        ("motifs -k 33", k),
        ("motifs -k 0", k),
        ("trace -k 33", k),
        ("fsm --support 1 --max-edges 32", max_edges),
        ("submit --local-cluster 1 --app motifs -k 33", k),
        (
            "submit --local-cluster 1 --app fsm --max-edges 32",
            max_edges,
        ),
    ] {
        let out = fractal(&format!("{task} --gen mico --n 20"));
        assert_refused_naming(&out, bound);
    }
    // The largest sizes a pattern holds still run (on a 40-vertex path,
    // which has subgraphs of every size and few of each).
    let path = std::env::temp_dir().join(format!("fractal-path40-{}.adj", std::process::id()));
    let rows: Vec<String> = (0..40u32)
        .map(|v| match v {
            0 => "0 0 1".to_string(),
            39 => "39 0 38".to_string(),
            _ => format!("{v} 0 {} {}", v - 1, v + 1),
        })
        .collect();
    std::fs::write(&path, rows.join("\n") + "\n").expect("write path graph");
    for task in ["motifs -k 32", "fsm --support 1 --max-edges 31"] {
        let out = fractal(&format!("{task} --graph {}", path.display()));
        assert!(out.status.success(), "{task} refused");
    }
    std::fs::remove_file(&path).expect("remove path graph");
}

/// Runs `client submit` once per task against a daemon that only shakes
/// hands, so each job must be refused client-side, naming its reason.
fn assert_client_refuses(tasks: &'static [(&'static str, &'static str)]) {
    use fractal::net::frame::{read_frame, write_frame, Frame, Role};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let daemon = std::thread::spawn(move || {
        for _ in tasks {
            let (mut conn, _) = listener.accept().expect("accept");
            read_frame(&mut conn).expect("client hello");
            let hello = Frame::Hello {
                role: Role::Driver,
                cores: 0,
            };
            write_frame(&mut conn, 0, &hello).expect("driver hello");
            // Nothing but EOF may follow.
            assert!(read_frame(&mut conn).is_err(), "client sent a frame");
        }
    });
    for (task, reason) in tasks {
        let out = fractal(&format!(
            "client submit --server {addr} --snapshot gen:mico:30:1 {task}"
        ));
        assert_refused_naming(&out, reason);
    }
    daemon.join().expect("daemon thread");
}

#[test]
fn client_submit_refuses_uncompilable_decomposed_by_name() {
    assert_client_refuses(&[(
        "--app fsm --plan decomposed",
        "--plan decomposed: fsm has no decomposed path",
    )]);
}

#[test]
fn client_submit_refuses_oversized_apps_naming_the_bound() {
    assert_client_refuses(&[
        ("--app fsm --max-edges 32", "fsm takes max-edges in 0..=31"),
        ("--app motifs -k 33", "motifs takes k in 1..=32"),
    ]);
}
