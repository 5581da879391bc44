//! Integration tests for the `fractal serve` job server: in-process
//! daemon over real localhost TCP worker sessions, driven through the
//! [`fractal_net::Client`] API. Verifies concurrent multiplexed jobs are
//! bit-identical to single-process runs, that one snapshot load is shared
//! across jobs, and that admission control rejects cleanly (a Nack frame,
//! never a hang).

use fractal_apps::{cliques, fsm, motifs};
use fractal_core::FractalContext;
use fractal_net::blob::{decode_fsm_seeds, decode_motifs_map, decode_report};
use fractal_net::frame::{read_frame, write_frame, EventKind, Frame, Role};
use fractal_net::journal::{decode_record, encode_record, Record, JOURNAL_FILE};
use fractal_net::worker::{serve, ServeOutcome};
use fractal_net::{
    load_snapshot, AppSpec, Client, JobTerminal, ReconnectPolicy, ServeConfig, Server,
};
use fractal_pattern::CanonicalCode;
use fractal_runtime::ClusterConfig;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

type WorkerHandle = thread::JoinHandle<io::Result<ServeOutcome>>;

fn start_workers(n: usize, cores: usize) -> (Vec<WorkerHandle>, Vec<(TcpStream, String)>) {
    let mut handles = Vec::new();
    let mut workers = Vec::new();
    for i in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handles.push(thread::spawn(move || serve(&listener, cores)));
        workers.push((TcpStream::connect(addr).expect("connect"), format!("w{i}")));
    }
    (handles, workers)
}

/// Binds a server on an ephemeral port, spawns its accept loop, and
/// returns a handle plus the client-facing address.
fn start_server(workers: Vec<(TcpStream, String)>, config: ServeConfig) -> (Arc<Server>, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let server = Arc::new(Server::bind(listener, workers, config).expect("server"));
    let addr = server.local_addr().expect("addr").to_string();
    let accept = Arc::clone(&server);
    // The accept loop blocks forever; the thread dies with the test
    // process.
    thread::spawn(move || {
        let _ = accept.run();
    });
    (server, addr)
}

fn join_shutdown(handles: Vec<WorkerHandle>) {
    for h in handles {
        let outcome = h.join().expect("worker thread").expect("serve");
        assert_eq!(outcome, ServeOutcome::Shutdown);
    }
}

fn within_secs<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("operation timed out")
}

const SNAPSHOT: &str = "gen:mico:300:11";

/// Three different apps submitted concurrently by three clients against
/// one shared snapshot: every result must be bit-identical to a
/// single-process run on the same graph, and the daemon must have loaded
/// the snapshot without evicting it.
#[test]
fn concurrent_jobs_bit_identical_to_single_process() {
    let graph = load_snapshot(SNAPSHOT).expect("snapshot");
    let fg = FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(graph);
    let single_motifs = motifs::motifs(&fg, 3);
    let single_kclist = cliques::count_kclist(&fg, 4);
    let single_fsm = fsm::fsm(&fg, 40, 2);
    let mut expected_fsm: Vec<(usize, CanonicalCode, u64)> = single_fsm
        .frequent
        .iter()
        .map(|p| (p.num_edges, p.code.clone(), p.support))
        .collect();
    expected_fsm.sort();

    let (handles, workers) = start_workers(2, 2);
    let (server, addr) = start_server(workers, ServeConfig::default());

    let submit = |tenant: &'static str, app: AppSpec| {
        let addr = addr.clone();
        thread::spawn(move || -> io::Result<(u64, Vec<u8>, Vec<u8>)> {
            let mut client = Client::connect(&addr)?;
            let job = client.submit(tenant, 0, SNAPSHOT, &app, tenant)?;
            match client.wait(job)? {
                JobTerminal::Done { .. } => {}
                other => panic!("job {job} did not finish: {other:?}"),
            }
            client.fetch_result(job)
        })
    };
    let jm = submit(
        "alice",
        AppSpec::Motifs {
            k: 3,
            use_labels: false,
            decomposed: false,
        },
    );
    let jk = submit("bob", AppSpec::Kclist { k: 4 });
    let jf = submit(
        "carol",
        AppSpec::Fsm {
            min_support: 40,
            max_edges: 2,
        },
    );

    let (_, motifs_agg, motifs_report) =
        within_secs(120, move || jm.join().expect("motifs job")).expect("motifs result");
    let (kclist_count, _, _) =
        within_secs(120, move || jk.join().expect("kclist job")).expect("kclist result");
    let (_, fsm_agg, _) =
        within_secs(120, move || jf.join().expect("fsm job")).expect("fsm result");

    assert_eq!(
        decode_motifs_map(&motifs_agg).expect("motifs agg"),
        single_motifs
    );
    assert_eq!(kclist_count, single_kclist);
    let seeds = decode_fsm_seeds(&fsm_agg).expect("fsm agg");
    let mut got_fsm: Vec<(usize, CanonicalCode, u64)> = seeds
        .iter()
        .enumerate()
        .flat_map(|(r, map)| {
            map.iter()
                .map(move |(code, sup)| (r + 1, code.clone(), sup.support()))
        })
        .collect();
    got_fsm.sort();
    assert_eq!(got_fsm, expected_fsm);

    // The federated report carries the daemon's serve counters: three
    // admissions, no rejections, and the shared snapshot stayed cached.
    let report = decode_report(&motifs_report).expect("report");
    assert!(report.faults.jobs_admitted >= 3);
    assert_eq!(report.faults.jobs_rejected, 0);
    assert_eq!(report.faults.snapshot_evictions, 0);

    fractal_net::serve::shutdown_workers(&server);
    join_shutdown(handles);
}

/// Admission control: a tenant over quota gets a clean `Rejected` Nack —
/// not a hang — and a different tenant is unaffected. Cancelling the
/// queued job releases the quota slot. `max_running: 0` pins every
/// admitted job in the queue so the assertions are deterministic.
#[test]
fn tenant_over_quota_gets_clean_nack() {
    within_secs(30, || {
        let (handles, workers) = start_workers(1, 1);
        let config = ServeConfig {
            max_per_tenant: 1,
            max_running: 0,
            ..ServeConfig::default()
        };
        let (server, addr) = start_server(workers, config);
        let app = AppSpec::Kclist { k: 3 };

        let mut client = Client::connect(&addr).expect("connect");
        let first = client
            .submit("alice", 0, SNAPSHOT, &app, "tok-a1")
            .expect("admit");

        let err = client
            .submit("alice", 0, SNAPSHOT, &app, "tok-a2")
            .expect_err("second job must be rejected");
        assert!(
            err.to_string().contains("over quota"),
            "unexpected rejection reason: {err}"
        );

        // Another tenant still has headroom.
        client
            .submit("bob", 0, SNAPSHOT, &app, "tok-b1")
            .expect("other tenant");

        // Cancelling the queued job frees alice's slot immediately.
        let (kind, _, _) = client.cancel(first).expect("cancel");
        assert_eq!(kind, EventKind::Cancelled);
        client
            .submit("alice", 0, SNAPSHOT, &app, "tok-a3")
            .expect("slot released");

        // Unknown job ids answer with a Failed status, not a hang.
        let (kind, detail, _) = client.status(9999).expect("status");
        assert_eq!(kind, EventKind::Failed);
        assert!(detail.contains("unknown job"), "detail: {detail}");

        fractal_net::serve::shutdown_workers(&server);
        join_shutdown(handles);
    })
}

/// A full queue rejects new work with a clean Nack naming the reason.
#[test]
fn full_queue_rejects_cleanly() {
    within_secs(30, || {
        let (handles, workers) = start_workers(1, 1);
        let config = ServeConfig {
            max_queue: 2,
            max_running: 0,
            ..ServeConfig::default()
        };
        let (server, addr) = start_server(workers, config);
        let app = AppSpec::Kclist { k: 3 };

        let mut client = Client::connect(&addr).expect("connect");
        client
            .submit("a", 0, SNAPSHOT, &app, "tok-q1")
            .expect("first");
        client
            .submit("b", 0, SNAPSHOT, &app, "tok-q2")
            .expect("second");
        let err = client
            .submit("c", 0, SNAPSHOT, &app, "tok-q3")
            .expect_err("third must be rejected");
        assert!(
            err.to_string().contains("queue full"),
            "unexpected rejection reason: {err}"
        );

        fractal_net::serve::shutdown_workers(&server);
        join_shutdown(handles);
    })
}

/// A spec whose subgraphs no pattern can hold would panic a worker's core
/// thread; admission refuses it naming the bound, and the daemon goes on
/// admitting.
#[test]
fn oversized_specs_are_rejected_at_admission() {
    within_secs(30, || {
        let (handles, workers) = start_workers(1, 1);
        let config = ServeConfig {
            max_running: 0,
            ..ServeConfig::default()
        };
        let (server, addr) = start_server(workers, config);
        let mut client = Client::connect(&addr).expect("connect");
        for (app, bound) in [
            (
                AppSpec::Fsm {
                    min_support: 1,
                    max_edges: 32,
                },
                "fsm takes max-edges in 0..=31",
            ),
            (
                AppSpec::Motifs {
                    k: 33,
                    use_labels: false,
                    decomposed: false,
                },
                "motifs takes k in 1..=32",
            ),
        ] {
            let err = client
                .submit("t", 0, SNAPSHOT, &app, "")
                .expect_err("oversized spec admitted");
            assert!(err.to_string().contains(bound), "bound not named: {err}");
        }
        let largest = AppSpec::Fsm {
            min_support: 1,
            max_edges: 31,
        };
        client
            .submit("t", 0, SNAPSHOT, &largest, "")
            .expect("the bound itself is admitted");

        fractal_net::serve::shutdown_workers(&server);
        join_shutdown(handles);
    })
}

/// A queued job's position is its rank in dispatch order (higher
/// priority first, submission order within a priority). With no running
/// slots nothing dispatches, so the order is observed through the public
/// API: the `Queued` event each admission logs, `status`, and `cancel`.
#[test]
fn status_reports_queue_position() {
    within_secs(30, || {
        let (handles, workers) = start_workers(1, 1);
        let config = ServeConfig {
            max_running: 0,
            ..ServeConfig::default()
        };
        let (server, addr) = start_server(workers, config);
        let app = AppSpec::Kclist { k: 3 };
        let queued = |position| (EventKind::Queued, String::new(), position);

        let mut client = Client::connect(&addr).expect("connect");
        let low = client
            .submit("a", 0, SNAPSHOT, &app, "tok-p1")
            .expect("first");
        let high = client
            .submit("b", 9, SNAPSHOT, &app, "tok-p2")
            .expect("second");

        // The later, higher-priority job dispatches first.
        assert_eq!(client.status(high).expect("status high"), queued(1));
        assert_eq!(client.status(low).expect("status low"), queued(2));

        // Cancel the head; the tail moves up and stays cancellable.
        let (kind, _, _) = client.cancel(high).expect("cancel high");
        assert_eq!(kind, EventKind::Cancelled);
        assert_eq!(client.status(low).expect("status low after"), queued(1));
        let (kind, _, _) = client.cancel(low).expect("cancel low");
        assert_eq!(kind, EventKind::Cancelled);

        // Each admission's `Queued` event named its rank then: both went
        // to the front.
        let mut watcher = Client::connect(&addr).expect("connect watcher");
        for job in [low, high] {
            let mut positions = Vec::new();
            let terminal = watcher
                .wait_resumable(job, &ReconnectPolicy::default(), |kind, _, value| {
                    if kind == EventKind::Queued {
                        positions.push(value);
                    }
                })
                .expect("watch");
            assert_eq!((terminal, positions), (JobTerminal::Cancelled, vec![1]));
        }

        fractal_net::serve::shutdown_workers(&server);
        join_shutdown(handles);
    })
}

/// A fresh per-test journal directory under the system temp dir.
fn journal_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fractal-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir journal");
    dir
}

/// Decodes FSM agg bytes into a sorted, order-independent pattern list
/// (the raw blob iterates hash maps, so byte order is not stable).
fn fsm_patterns(agg: &[u8]) -> Vec<(usize, CanonicalCode, u64)> {
    let mut got: Vec<(usize, CanonicalCode, u64)> = decode_fsm_seeds(agg)
        .expect("fsm agg")
        .iter()
        .enumerate()
        .flat_map(|(r, map)| {
            map.iter()
                .map(move |(code, sup)| (r + 1, code.clone(), sup.support()))
        })
        .collect();
    got.sort();
    got
}

/// Crash-consistency end to end: run a multi-round FSM job to completion
/// under one daemon, then rewind its journal to just after the *first*
/// committed word-set — exactly the disk state a crash between round
/// commits leaves behind — and boot a second daemon on the same journal
/// directory. The job must be re-admitted, resume from the committed
/// round rather than restarting, and produce results identical to both
/// the pre-crash run and a single-process run. The same image with the
/// commit's blob cut short must instead be dropped on replay, the job
/// rerun from round 0 with the same result.
#[test]
fn restart_resumes_from_committed_word_set_bit_identically() {
    let graph = load_snapshot(SNAPSHOT).expect("snapshot");
    let fg = FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(graph);
    let single = fsm::fsm(&fg, 40, 2);
    let mut expected: Vec<(usize, CanonicalCode, u64)> = single
        .frequent
        .iter()
        .map(|p| (p.num_edges, p.code.clone(), p.support))
        .collect();
    expected.sort();

    let dir = journal_dir("resume");
    let app = AppSpec::Fsm {
        min_support: 40,
        max_edges: 2,
    };

    // Phase A: run the job to completion with the journal armed.
    let (handles_a, workers_a) = start_workers(2, 2);
    let config = ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (server_a, addr_a) = start_server(workers_a, config);
    let (job, count_a, agg_a) = within_secs(120, move || {
        let mut client = Client::connect(&addr_a).expect("connect A");
        let job = client
            .submit("carol", 0, SNAPSHOT, &app, "tok-resume")
            .expect("admit");
        match client.wait(job).expect("wait A") {
            JobTerminal::Done { .. } => {}
            other => panic!("phase A did not finish: {other:?}"),
        }
        let (count, agg, _) = client.fetch_result(job).expect("result A");
        (job, count, agg)
    });
    fractal_net::serve::shutdown_workers(&server_a);
    join_shutdown(handles_a);
    assert_eq!(fsm_patterns(&agg_a), expected);

    // Rewind the journal: keep everything through the FIRST committed
    // word-set and drop the rest (the second round's commit and the
    // terminal record) — the disk image of a crash mid-job.
    let path = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&path).expect("read journal");
    let mut pos = 0;
    let mut commit = None;
    while let Some((rec, used)) = decode_record(&bytes[pos..]) {
        if let Record::WordSetCommitted { rounds_done, .. } = rec {
            assert_eq!(rounds_done, 1, "first commit must be round 1");
            commit = Some((pos, rec));
            pos += used;
            break;
        }
        pos += used;
    }
    let (start, commit) = commit.expect("journal must contain a committed word-set");
    assert!(pos < bytes.len(), "terminal records must follow the commit");
    // The same image with the commit's blob cut short: the record still
    // replays, but its result no longer decodes.
    let Record::WordSetCommitted {
        job: j,
        rounds_done,
        count,
        agg,
    } = commit
    else {
        unreachable!("matched above")
    };
    let mut corrupt = bytes[..start].to_vec();
    corrupt.extend(encode_record(&Record::WordSetCommitted {
        job: j,
        rounds_done,
        count,
        agg: agg[..agg.len() - 1].to_vec(),
    }));

    // A second daemon on the same journal directory re-admits the job and
    // runs it to the end; returns what it served and how many jobs resumed.
    let restart_on = |image: &[u8]| {
        std::fs::write(&path, image).expect("rewind journal");
        let (handles, workers) = start_workers(2, 2);
        let config = ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let (server, addr) = start_server(workers, config);
        let (terminal, count, agg) = within_secs(120, move || {
            // A fresh connection that never submitted the job: Watch-based
            // resumable waiting is the only way to observe it, exactly
            // like a real `fractal client --wait` surviving a restart.
            let mut client = Client::connect(&addr).expect("connect");
            let terminal = client
                .wait_resumable(job, &ReconnectPolicy::default(), |_, _, _| {})
                .expect("wait");
            let (count, agg, _) = client.fetch_result(job).expect("result");
            (terminal, count, agg)
        });
        assert_eq!(terminal, JobTerminal::Done { count });
        let resumed = server.resumed_jobs();
        fractal_net::serve::shutdown_workers(&server);
        join_shutdown(handles);
        (resumed, count, agg)
    };

    // Phase B: the job resumes from the committed round.
    let (resumed, count_b, agg_b) = restart_on(&bytes[..pos]);
    assert_eq!(
        resumed, 1,
        "the job must resume from the journal, not restart"
    );
    assert_eq!(count_b, count_a, "resumed count must be bit-identical");
    assert_eq!(fsm_patterns(&agg_b), expected);

    // Phase C: a commit that no longer decodes is dropped and the job
    // restarts from round 0, still exact.
    let (resumed, count_c, agg_c) = restart_on(&corrupt);
    assert_eq!(resumed, 0, "an undecodable commit must not be resumed from");
    assert_eq!(count_c, count_a);
    assert_eq!(fsm_patterns(&agg_c), expected);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Exactly-once quota accounting under a cancel-vs-dispatch race: fire
/// submit-then-immediately-cancel pairs at a saturated scheduler so some
/// cancels land while the job is still queued (synchronous release) and
/// some after dispatch (cooperative release on the driver's thread).
/// However each race resolves, every admitted job must release its
/// tenant slot exactly once — `tenant_inflight` drains to zero and the
/// release counter matches admissions exactly (a double release would
/// overshoot; a leak would undershoot).
#[test]
fn quota_releases_exactly_once_under_cancel_dispatch_race() {
    within_secs(90, || {
        let (handles, workers) = start_workers(1, 1);
        let config = ServeConfig {
            max_per_tenant: 4,
            max_running: 2,
            ..ServeConfig::default()
        };
        let (server, addr) = start_server(workers, config);
        let app = AppSpec::Kclist { k: 3 };

        let mut submitter = Client::connect(&addr).expect("connect submitter");
        // A second connection that never submits: its event stream only
        // ever carries replies to its own status requests, so polling is
        // not confused by events pushed for the submitter's jobs.
        let mut poller = Client::connect(&addr).expect("connect poller");

        let mut admitted = Vec::new();
        for i in 0..8 {
            match submitter.submit("alice", 0, SNAPSHOT, &app, &format!("tok-race-{i}")) {
                Ok(job) => {
                    admitted.push(job);
                    // Race the cancel against dispatch. Any reply is
                    // legal here (Cancelled if still queued, Running
                    // "cancelling" if already dispatched).
                    submitter.cancel(job).expect("cancel");
                }
                // Over quota is a legal outcome while slots drain; the
                // audit below only covers what was actually admitted.
                Err(err) => assert!(
                    err.to_string().contains("over quota"),
                    "unexpected rejection: {err}"
                ),
            }
        }
        assert!(!admitted.is_empty(), "at least one job must be admitted");

        // Wait for every admitted job to reach a terminal state.
        for &job in &admitted {
            loop {
                let (kind, _, _) = poller.status(job).expect("status");
                match kind {
                    EventKind::Done | EventKind::Cancelled | EventKind::Failed => break,
                    _ => thread::sleep(Duration::from_millis(20)),
                }
            }
        }

        assert_eq!(
            server.tenant_inflight("alice"),
            0,
            "every admitted job must release its quota slot"
        );
        assert_eq!(
            server.quota_releases(),
            admitted.len() as u64,
            "each admitted job must release exactly once"
        );

        fractal_net::serve::shutdown_workers(&server);
        join_shutdown(handles);
    })
}

/// `wait_resumable` against a mock daemon that is killed and restarted
/// mid-stream: the client must reconnect with backoff, re-subscribe with
/// `Watch { after_seq }` naming exactly the last event it delivered,
/// suppress the replayed duplicates, and hand the callback the complete
/// event sequence with nothing lost and nothing repeated.
#[test]
fn client_reconnects_and_loses_no_events_across_mock_server_restart() {
    within_secs(30, || {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
        let addr = listener.local_addr().expect("addr").to_string();
        let (tx, rx) = channel();

        let push =
            |stream: &mut TcpStream, seq: &mut u32, event_seq: u64, kind: EventKind, value: u64| {
                let frame = Frame::JobEvent {
                    job: 7,
                    kind,
                    detail: String::new(),
                    value,
                    event_seq,
                };
                write_frame(stream, *seq, &frame).expect("push event");
                *seq += 1;
            };
        let accept_watch = move |listener: &TcpListener| -> (TcpStream, u64) {
            let (mut stream, _) = listener.accept().expect("accept");
            match read_frame(&mut stream).expect("hello").1 {
                Frame::Hello {
                    role: Role::Client, ..
                } => {}
                other => panic!("expected client hello, got {other:?}"),
            }
            write_frame(
                &mut stream,
                0,
                &Frame::Hello {
                    role: Role::Driver,
                    cores: 0,
                },
            )
            .expect("hello reply");
            match read_frame(&mut stream).expect("watch").1 {
                Frame::Watch { job: 7, after_seq } => (stream, after_seq),
                other => panic!("expected watch, got {other:?}"),
            }
        };

        thread::spawn(move || {
            // First incarnation: three events, then die mid-stream.
            let (mut stream, after) = accept_watch(&listener);
            tx.send(after).expect("report after_seq");
            let mut seq = 1;
            push(&mut stream, &mut seq, 1, EventKind::Running, 1);
            push(&mut stream, &mut seq, 2, EventKind::Progress, 2);
            push(&mut stream, &mut seq, 3, EventKind::Progress, 3);
            drop(stream); // SIGKILL, as far as the client can tell

            // Restart: the client re-subscribes; replay a duplicate
            // suffix (a real daemon replays from its event log and the
            // requested cursor may trail what the wire already carried),
            // then finish the job.
            let (mut stream, after) = accept_watch(&listener);
            tx.send(after).expect("report after_seq");
            let mut seq = 1;
            push(&mut stream, &mut seq, 2, EventKind::Progress, 2);
            push(&mut stream, &mut seq, 3, EventKind::Progress, 3);
            push(&mut stream, &mut seq, 4, EventKind::Progress, 4);
            push(&mut stream, &mut seq, 5, EventKind::Done, 42);
        });

        let policy = ReconnectPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            max_attempts: 20,
            read_timeout: Duration::from_secs(5),
            ..ReconnectPolicy::default()
        };
        let mut client = Client::connect(&addr).expect("connect");
        let mut seen = Vec::new();
        let terminal = client
            .wait_resumable(7, &policy, |kind, _, value| seen.push((kind, value)))
            .expect("wait_resumable");

        assert_eq!(terminal, JobTerminal::Done { count: 42 });
        assert_eq!(client.reconnects(), 1, "exactly one reconnect");
        // No event lost, none duplicated, in order.
        assert_eq!(
            seen,
            vec![
                (EventKind::Running, 1),
                (EventKind::Progress, 2),
                (EventKind::Progress, 3),
                (EventKind::Progress, 4),
                (EventKind::Done, 42),
            ]
        );
        // The first subscription starts at the beginning; the resumed one
        // names exactly the last event the callback saw before the crash.
        assert_eq!(rx.recv().expect("first watch"), 0);
        assert_eq!(rx.recv().expect("resumed watch"), 3);
    })
}
