//! End-to-end cluster tests over real localhost TCP: worker `serve`
//! loops on threads, the driver in the test thread. Verifies bit-identical
//! results vs. single-process execution and the graceful-shutdown
//! guarantees of the worker session loop.

mod common;

use common::within_secs;
use fractal_apps::{cliques, fsm, motifs};
use fractal_core::{Aggregator, FractalContext};
use fractal_graph::{gen, Graph};
use fractal_net::frame::{read_frame, write_frame, Frame, Role, MISS_WORD, SHUTDOWN_ROUND};
use fractal_net::{run_cluster, serve, AppSpec, DriverConfig, ServeOutcome};
use fractal_pattern::CanonicalCode;
use fractal_runtime::steal::{encode_unit, StolenUnit};
use fractal_runtime::{ClusterConfig, JobReport};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

type WorkerHandle = thread::JoinHandle<io::Result<ServeOutcome>>;

fn start_workers(n: usize, cores: usize) -> (Vec<WorkerHandle>, Vec<TcpStream>, Vec<String>) {
    let mut handles = Vec::new();
    let mut streams = Vec::new();
    let mut names = Vec::new();
    for i in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handles.push(thread::spawn(move || serve(&listener, cores)));
        streams.push(TcpStream::connect(addr).expect("connect"));
        names.push(format!("w{i}"));
    }
    (handles, streams, names)
}

fn join_shutdown(handles: Vec<WorkerHandle>) {
    for h in handles {
        let outcome = h.join().expect("worker thread").expect("serve");
        assert_eq!(outcome, ServeOutcome::Shutdown);
    }
}

#[test]
fn motifs_cluster_matches_single_process() {
    let single = {
        let fg = FractalContext::new(ClusterConfig::local(1, 2))
            .fractal_graph(gen::mico_like(220, 4, 7));
        motifs::motifs(&fg, 3)
    };
    let (handles, streams, names) = start_workers(2, 2);
    let config = DriverConfig::new(
        AppSpec::Motifs {
            k: 3,
            use_labels: false,
            decomposed: false,
        },
        gen::mico_like(220, 4, 7),
    );
    let result = run_cluster(streams, names, config).expect("cluster run");
    join_shutdown(handles);
    assert_eq!(result.motifs, single);
    assert_eq!(result.rounds, 1);
    assert_eq!(result.deaths, 0);
    // Both workers participated and flushed exactly once.
    for w in &result.workers {
        assert_eq!(w.flushes, 1);
        assert!(w.assigned > 0);
        assert!(!w.died);
    }
    // Word accounting: every root completed exactly once across workers.
    let completed: u64 = result.workers.iter().map(|w| w.completed).sum();
    let assigned: u64 = result.workers.iter().map(|w| w.assigned).sum();
    assert_eq!(completed, assigned);
    // Cross-process steals are counted at the driver that relays them (a
    // worker runs `WsMode::InternalOnly`, so its own report counts none): a
    // hit is a reply that carried a unit, and every hit answers a thief's
    // request.
    assert_eq!(result.report.steal_hits, result.steal_relays);
    assert!(result.report.steal_requests >= result.report.steal_hits);
    assert!(result.report.steal_requests > 0, "idle cores pull");
}

/// Decomposed motif counting over the cluster substrate: workers flush raw
/// per-plan-node partial totals, the driver sums and Möbius-finalizes —
/// the result must be bit-identical to the single-process enumerator.
#[test]
fn decomposed_motifs_cluster_matches_enumerator() {
    for k in [3u32, 4] {
        let single = {
            let fg = FractalContext::new(ClusterConfig::local(1, 2))
                .fractal_graph(gen::mico_like(180, 4, 9));
            motifs::motifs(&fg, k as usize)
        };
        let (handles, streams, names) = start_workers(2, 2);
        let config = DriverConfig::new(
            AppSpec::Motifs {
                k,
                use_labels: false,
                decomposed: true,
            },
            gen::mico_like(180, 4, 9),
        );
        let result = run_cluster(streams, names, config).expect("cluster run");
        join_shutdown(handles);
        assert_eq!(result.motifs, single, "k={k}");
        assert_eq!(result.deaths, 0);
        // The merged report carries the shared planner counters (absorbed,
        // not summed: every worker compiles the identical plan).
        assert!(result.report.planner.plans_compiled > 0);
        assert!(result.report.planner.subpatterns_counted > 0);
        // Exactly-once word accounting holds on the plan path too.
        let completed: u64 = result.workers.iter().map(|w| w.completed).sum();
        let assigned: u64 = result.workers.iter().map(|w| w.assigned).sum();
        assert_eq!(completed, assigned);
    }
}

#[test]
fn kclist_cluster_matches_single_process() {
    let single = {
        let fg = FractalContext::new(ClusterConfig::local(1, 2))
            .fractal_graph(gen::mico_like(250, 4, 11));
        cliques::count_kclist(&fg, 4)
    };
    let (handles, streams, names) = start_workers(3, 2);
    let config = DriverConfig::new(AppSpec::Kclist { k: 4 }, gen::mico_like(250, 4, 11));
    let result = run_cluster(streams, names, config).expect("cluster run");
    join_shutdown(handles);
    assert_eq!(result.count, single);
    assert_eq!(result.deaths, 0);
}

/// Frequent patterns as a comparable, ordered list of
/// (edge count, code, support).
fn frequent_triples(result: &fractal_net::ClusterResult) -> Vec<(usize, CanonicalCode, u64)> {
    let mut out: Vec<(usize, CanonicalCode, u64)> = result
        .frequent
        .iter()
        .enumerate()
        .flat_map(|(r, map)| {
            map.iter()
                .map(move |(code, sup)| (r + 1, code.clone(), sup.support()))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn fsm_cluster_matches_single_process() {
    let single = {
        let fg = FractalContext::new(ClusterConfig::local(1, 2))
            .fractal_graph(gen::patents_like(110, 4, 23));
        fsm::fsm(&fg, 12, 2)
    };
    let mut expected: Vec<(usize, CanonicalCode, u64)> = single
        .frequent
        .iter()
        .map(|p| (p.num_edges, p.code.clone(), p.support))
        .collect();
    expected.sort();

    let (handles, streams, names) = start_workers(2, 2);
    let config = DriverConfig::new(
        AppSpec::Fsm {
            min_support: 12,
            max_edges: 2,
        },
        gen::patents_like(110, 4, 23),
    );
    let result = run_cluster(streams, names, config).expect("cluster run");
    join_shutdown(handles);
    assert_eq!(frequent_triples(&result), expected);
    assert!(result.rounds >= 1);
}

#[test]
fn single_worker_cluster_matches_and_uses_no_steals() {
    let single = {
        let fg = FractalContext::new(ClusterConfig::local(1, 2))
            .fractal_graph(gen::mico_like(150, 4, 5));
        motifs::motifs(&fg, 3)
    };
    let (handles, streams, names) = start_workers(1, 2);
    let config = DriverConfig::new(
        AppSpec::Motifs {
            k: 3,
            use_labels: false,
            decomposed: false,
        },
        gen::mico_like(150, 4, 5),
    );
    let result = run_cluster(streams, names, config).expect("cluster run");
    join_shutdown(handles);
    assert_eq!(result.motifs, single);
    // With one worker there is no peer to steal from.
    assert_eq!(result.steal_relays, 0);
    assert_eq!(result.workers[0].net_units, 0);
}

// ---- graceful shutdown (satellite: TCP path of the shutdown-race tests) ----

fn handshake(stream: &mut TcpStream) {
    write_frame(
        stream,
        0,
        &Frame::Hello {
            role: Role::Driver,
            cores: 0,
        },
    )
    .expect("hello");
    match read_frame(stream).expect("worker hello") {
        (
            _,
            Frame::Hello {
                role: Role::Worker, ..
            },
        ) => {}
        other => panic!("expected worker Hello, got {other:?}"),
    }
}

/// The 3-motif census of each root word.
type Census = Arc<HashMap<u64, HashMap<CanonicalCode, u64>>>;

/// `graph`'s [`Census`], computed before the driver starts, so a scripted
/// worker answers its `Assign` by summing tables instead of enumerating
/// against the driver's staleness clock.
fn census_by_root(graph: &Graph) -> Census {
    let fg = FractalContext::new(ClusterConfig::local(1, 1)).fractal_graph(graph.clone());
    let fractoid = motifs::motifs_fractoid(&fg, 3, false);
    let census = fractoid.step_roots().into_iter().map(|root| {
        let mut outcome = fractoid.execute_step_distributed(vec![root], false, None);
        let map = Aggregator::<CanonicalCode, u64>::take_map(outcome.shards.remove(0));
        (root, map)
    });
    Arc::new(census.collect())
}

/// Answers the worker `Hello` of a driver on a scripted worker's stream.
fn worker_handshake(stream: &mut TcpStream) {
    match read_frame(stream).expect("driver hello") {
        (
            _,
            Frame::Hello {
                role: Role::Driver, ..
            },
        ) => {}
        other => panic!("expected driver Hello, got {other:?}"),
    }
    write_frame(
        stream,
        0,
        &Frame::Hello {
            role: Role::Worker,
            cores: 1,
        },
    )
    .expect("hello reply");
}

/// A hand-scripted worker for the shutdown-race regression below: it
/// sums its assigned roots' motif census from `census`, reports every
/// completion in ONE heartbeat, and after the round's `Done` sends its
/// final `AggFlush` and then goes *silent* (no further heartbeats) until
/// the shutdown broadcast. The only liveness evidence the driver gets
/// after `Done` is the flush itself. `tap_drained` is stamped into the
/// flushed report so a test can tell the two workers' reports apart.
fn scripted_quiet_flush_worker(
    listener: TcpListener,
    census: Census,
    tap_drained: u64,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        worker_handshake(&mut stream);
        let roots = match read_frame(&mut stream).expect("assign") {
            (_, Frame::Assign { roots, .. }) => roots,
            other => panic!("expected Assign, got {other:?}"),
        };
        let mut map: HashMap<CanonicalCode, u64> = HashMap::new();
        for root in &roots {
            for (code, n) in &census[root] {
                *map.entry(code.clone()).or_default() += n;
            }
        }
        let mut report = JobReport::default();
        report.faults.tap_drained = tap_drained;

        write_frame(
            &mut stream,
            1,
            &Frame::Heartbeat {
                round: 0,
                completed: roots,
            },
        )
        .expect("heartbeat");

        loop {
            match read_frame(&mut stream).expect("done") {
                (_, Frame::Done { round: 0 }) => break,
                (
                    _,
                    Frame::Done {
                        round: SHUTDOWN_ROUND,
                    },
                ) => panic!("shutdown before round Done"),
                _ => {}
            }
        }
        write_frame(
            &mut stream,
            2,
            &Frame::AggFlush {
                round: 0,
                count: 0,
                agg: fractal_net::blob::encode_motifs_map(&map),
                report: fractal_net::blob::encode_report(&report),
            },
        )
        .expect("flush");

        // Silent from here: wait for the shutdown broadcast, then hang up.
        loop {
            match read_frame(&mut stream) {
                Ok((
                    _,
                    Frame::Done {
                        round: SHUTDOWN_ROUND,
                    },
                )) => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
    })
}

/// A hand-scripted victim for the corrupt-unit test below. It answers the
/// first relayed `StealRequest` by giving up its first root in a
/// `StealReply` whose unit bytes fail `decode_unit`'s checksum, reports
/// its other roots done, misses every later steal, and flushes their
/// census. Returns the root it gave up.
fn scripted_corrupt_victim(listener: TcpListener, census: Census) -> thread::JoinHandle<u64> {
    thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        worker_handshake(&mut stream);
        let roots = match read_frame(&mut stream).expect("assign") {
            (_, Frame::Assign { roots, .. }) => roots,
            other => panic!("expected Assign, got {other:?}"),
        };
        let seq = loop {
            match read_frame(&mut stream).expect("relayed steal") {
                (seq, Frame::StealRequest { round: 0 }) => break seq,
                (_, Frame::Done { .. }) => panic!("round ended before any steal"),
                _ => {}
            }
        };
        let (stolen, kept) = roots.split_first().expect("the victim owns a root");
        let mut unit = encode_unit(&StolenUnit {
            prefix: Vec::new(),
            word: *stolen,
        });
        unit[4] ^= 0x40; // a bit of the word: only the checksum sees it
        let reply = Frame::StealReply {
            round: 0,
            word: *stolen,
            unit: Some(unit),
        };
        write_frame(&mut stream, seq, &reply).expect("corrupt reply");

        let mut map: HashMap<CanonicalCode, u64> = HashMap::new();
        for root in kept {
            for (code, n) in &census[root] {
                *map.entry(code.clone()).or_default() += n;
            }
        }
        let beat = Frame::Heartbeat {
            round: 0,
            completed: kept.to_vec(),
        };
        write_frame(&mut stream, 1, &beat).expect("heartbeat");
        let mut flushed = false;
        loop {
            match read_frame(&mut stream) {
                Ok((seq, Frame::StealRequest { round })) => {
                    write_frame(&mut stream, seq, &Frame::miss(round)).expect("miss");
                }
                Ok((_, Frame::Done { round: 0 })) if !flushed => {
                    flushed = true;
                    let flush = Frame::AggFlush {
                        round: 0,
                        count: 0,
                        agg: fractal_net::blob::encode_motifs_map(&map),
                        report: fractal_net::blob::encode_report(&JobReport::default()),
                    };
                    write_frame(&mut stream, 2, &flush).expect("flush");
                }
                Ok((
                    _,
                    Frame::Done {
                        round: SHUTDOWN_ROUND,
                    },
                ))
                | Err(_) => break,
                Ok(_) => {}
            }
        }
        *stolen
    })
}

/// A steal reply whose unit fails its checksum in flight is nacked by the
/// real thief (`WorkerHooks::accept`); the driver re-owns the word as an
/// orphan, counts the nack against the thief, and serves the word again,
/// so the census still equals the single-process one.
#[test]
fn corrupt_steal_unit_is_nacked_and_reowned() {
    let graph = gen::mico_like(60, 4, 13);
    let single = {
        let fg = FractalContext::new(ClusterConfig::local(1, 1)).fractal_graph(graph.clone());
        motifs::motifs(&fg, 3)
    };
    let census = census_by_root(&graph);

    let thief_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let thief_addr = thief_listener.local_addr().expect("addr");
    let thief = thread::spawn(move || serve(&thief_listener, 1));
    let victim_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let victim_addr = victim_listener.local_addr().expect("addr");
    let victim = scripted_corrupt_victim(victim_listener, census);
    let streams = vec![
        TcpStream::connect(thief_addr).expect("connect"),
        TcpStream::connect(victim_addr).expect("connect"),
    ];

    let mut config = DriverConfig::new(
        AppSpec::Motifs {
            k: 3,
            use_labels: false,
            decomposed: false,
        },
        graph,
    );
    // The victim beats only once it has been robbed.
    config.heartbeat_timeout = Duration::from_secs(20);
    let result = within_secs(60, move || {
        run_cluster(streams, vec!["thief".into(), "victim".into()], config).expect("cluster run")
    });
    let stolen = victim.join().expect("victim thread");
    join_shutdown(vec![thief]);

    assert_eq!(result.motifs, single, "root {stolen} was lost or doubled");
    assert_eq!(result.deaths, 0);
    let (t, v) = (&result.workers[0], &result.workers[1]);
    assert_eq!(t.nacks, 1, "the thief nacks the corrupt unit");
    assert_eq!(v.nacks, 0);
    assert_eq!(v.stolen_out, 1);
    assert!(result.orphaned_words >= 1, "the nacked word is re-owned");
    // Once handed the corrupt unit and once served the orphan.
    assert!(t.stolen_in >= 2, "the orphan is served again");
}

/// Regression for the driver-side shutdown race: a worker that flushes
/// right after `Done` and then goes quiet must not be judged stale while
/// its delivered-but-unprocessed flush waits behind one slow event-loop
/// iteration (`chaos_stall_after_done` makes the slow iteration
/// deterministic). Before the fix the driver handled one event per
/// iteration and aged `last_beat` against wall clock, so the stall turned
/// both workers' queued traffic into a spurious kill + recovery pass.
#[test]
fn post_done_flush_survives_slow_driver_iteration() {
    let graph = gen::mico_like(160, 4, 13);
    let single = {
        let fg = FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(graph.clone());
        motifs::motifs(&fg, 3)
    };
    let census = census_by_root(&graph);

    let mut handles = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..2 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handles.push(scripted_quiet_flush_worker(listener, census.clone(), 0));
        streams.push(TcpStream::connect(addr).expect("connect"));
    }

    let mut config = DriverConfig::new(
        AppSpec::Motifs {
            k: 3,
            use_labels: false,
            decomposed: false,
        },
        graph,
    );
    // The staleness window is far shorter than the stall: every queued
    // heartbeat is older than the window by the time the stall ends.
    config.heartbeat_timeout = Duration::from_millis(150);
    config.chaos_stall_after_done = Some(Duration::from_millis(500));

    let result = within_secs(30, move || {
        run_cluster(streams, vec!["qa".into(), "qb".into()], config).expect("cluster run")
    });
    for h in handles {
        h.join().expect("worker thread");
    }

    assert_eq!(result.motifs, single);
    assert_eq!(result.deaths, 0, "no spurious kill");
    assert_eq!(result.recovery_assigns, 0, "no spurious recovery pass");
    assert_eq!(result.orphaned_words, 0);
    for w in &result.workers {
        assert!(!w.died);
        assert_eq!(w.flushes, 1);
    }
}

/// The federated report sums every fault counter of the workers'
/// reports. `tap_drained` was once missing from the driver's hand-written
/// sum; the merge is now derived from `FaultStats::FIELDS`.
#[test]
fn federated_report_sums_tap_drained() {
    let graph = gen::mico_like(60, 4, 13);
    let census = census_by_root(&graph);
    let mut handles = Vec::new();
    let mut streams = Vec::new();
    for tap_drained in [3, 4] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handles.push(scripted_quiet_flush_worker(
            listener,
            census.clone(),
            tap_drained,
        ));
        streams.push(TcpStream::connect(addr).expect("connect"));
    }
    let config = DriverConfig::new(
        AppSpec::Motifs {
            k: 3,
            use_labels: false,
            decomposed: false,
        },
        graph,
    );
    let result = within_secs(30, move || {
        run_cluster(streams, vec!["ta".into(), "tb".into()], config).expect("cluster run")
    });
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(result.deaths, 0);
    assert_eq!(result.report.faults.tap_drained, 7);
}

#[test]
fn worker_shuts_down_promptly_on_done() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let worker = thread::spawn(move || serve(&listener, 2));
    let mut stream = TcpStream::connect(addr).expect("connect");
    handshake(&mut stream);
    write_frame(
        &mut stream,
        1,
        &Frame::Done {
            round: SHUTDOWN_ROUND,
        },
    )
    .expect("done");
    let outcome = within_secs(10, move || worker.join().expect("join").expect("serve"));
    assert_eq!(outcome, ServeOutcome::Shutdown);
}

#[test]
fn worker_survives_driver_disconnect_mid_round() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let worker = thread::spawn(move || serve(&listener, 2));
    let mut stream = TcpStream::connect(addr).expect("connect");
    handshake(&mut stream);

    // Assign real work, then vanish before the round can finish.
    let graph = gen::mico_like(150, 4, 5);
    let app = AppSpec::Motifs {
        k: 3,
        use_labels: false,
        decomposed: false,
    };
    let graph_bytes = fractal_net::blob::encode_graph(&graph);
    let job = fractal_net::blob::encode_job_part(&app, 0, Some(&graph_bytes));
    let fg = FractalContext::new(ClusterConfig::local(1, 1)).fractal_graph(graph);
    let roots = motifs::motifs_fractoid(&fg, 3, false).step_roots();
    write_frame(
        &mut stream,
        1,
        &Frame::Assign {
            round: 0,
            recovery: false,
            job: Some(job),
            seed: None,
            roots,
        },
    )
    .expect("assign");
    drop(stream);

    // The worker must notice the dead driver, drain its executor and
    // return — without hanging and without leaking the session threads.
    let outcome = within_secs(30, move || worker.join().expect("join").expect("serve"));
    assert_eq!(outcome, ServeOutcome::Disconnected);
}

#[test]
fn late_steal_request_after_done_gets_a_miss() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let worker = thread::spawn(move || serve(&listener, 2));
    let mut stream = TcpStream::connect(addr).expect("connect");
    handshake(&mut stream);

    let graph = gen::mico_like(80, 4, 5);
    let app = AppSpec::Motifs {
        k: 3,
        use_labels: false,
        decomposed: false,
    };
    let graph_bytes = fractal_net::blob::encode_graph(&graph);
    let job = fractal_net::blob::encode_job_part(&app, 0, Some(&graph_bytes));
    let fg = FractalContext::new(ClusterConfig::local(1, 1)).fractal_graph(graph);
    let roots = motifs::motifs_fractoid(&fg, 3, false).step_roots();
    let total = roots.len();
    write_frame(
        &mut stream,
        1,
        &Frame::Assign {
            round: 0,
            recovery: false,
            job: Some(job),
            seed: None,
            roots,
        },
    )
    .expect("assign");

    // Drive the round by hand: wait for every root completion, declare
    // the round done, collect the flush.
    let mut completed = 0usize;
    while completed < total {
        if let (_, Frame::Heartbeat { completed: c, .. }) = read_frame(&mut stream).expect("beat") {
            completed += c.len();
        }
    }
    write_frame(&mut stream, 2, &Frame::Done { round: 0 }).expect("done");
    let mut motifs_map: Option<HashMap<CanonicalCode, u64>> = None;
    while motifs_map.is_none() {
        if let (_, Frame::AggFlush { agg, .. }) = read_frame(&mut stream).expect("flush") {
            motifs_map = Some(fractal_net::blob::decode_motifs_map(&agg).expect("agg"));
        }
    }
    let single = motifs::motifs(&fg, 3);
    assert_eq!(motifs_map.unwrap(), single);

    // A straggler steal request arriving after Done must still get a
    // prompt miss — not a hang, not a unit.
    write_frame(&mut stream, 77, &Frame::StealRequest { round: 0 }).expect("late steal");
    let reply = within_secs(10, move || loop {
        match read_frame(&mut stream).expect("reply") {
            (seq, Frame::StealReply { word, unit, .. }) => break (seq, word, unit, stream),
            _ => continue, // heartbeats
        }
    });
    assert_eq!(reply.0, 77, "reply echoes the request seq");
    assert_eq!(reply.1, MISS_WORD);
    assert!(reply.2.is_none());

    let mut stream = reply.3;
    write_frame(
        &mut stream,
        3,
        &Frame::Done {
            round: SHUTDOWN_ROUND,
        },
    )
    .expect("shutdown");
    let outcome = within_secs(10, move || worker.join().expect("join").expect("serve"));
    assert_eq!(outcome, ServeOutcome::Shutdown);
}
