//! A serve daemon sends each snapshot to a worker connection once: the
//! worker keeps it under an id the daemon never reuses, later jobs name
//! it by that id, and the worker drops it when the daemon's cache evicts
//! it (DESIGN.md §12.4). Every count here is checked against a
//! single-process run on the same graph.

use fractal_apps::{cliques, motifs};
use fractal_core::FractalContext;
use fractal_net::blob::{decode_motifs_map, decode_report, encode_graph, encode_job_part};
use fractal_net::frame::{decode_frame, encode_frame, read_frame, write_frame, Frame, Role};
use fractal_net::serve::shutdown_workers;
use fractal_net::worker::{serve, ServeOutcome};
use fractal_net::{load_snapshot, AppSpec, Client, JobTerminal, ServeConfig, Server};
use fractal_runtime::ClusterConfig;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const SNAPSHOT: &str = "gen:mico:300:11";
const OTHER: &str = "gen:patents:200:5";
const TRIANGLES: AppSpec = AppSpec::Kclist { k: 3 };

type WorkerHandle = thread::JoinHandle<io::Result<ServeOutcome>>;

fn within_secs<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("operation timed out")
}

/// `n` one-core worker threads, each serving `sessions` connections in
/// turn, and a connection to each.
fn start_workers(n: usize, sessions: usize) -> (Vec<WorkerHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        addrs.push(listener.local_addr().expect("addr"));
        handles.push(thread::spawn(move || {
            let mut outcome = Ok(ServeOutcome::Shutdown);
            for _ in 0..sessions {
                outcome = serve(&listener, 1);
            }
            outcome
        }));
    }
    (handles, addrs)
}

fn start_server(addrs: &[SocketAddr], config: ServeConfig) -> (Arc<Server>, Client) {
    let workers = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (TcpStream::connect(a).expect("connect"), format!("w{i}")))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let server = Arc::new(Server::bind(listener, workers, config).expect("server"));
    let addr = server.local_addr().expect("addr").to_string();
    let accept = Arc::clone(&server);
    thread::spawn(move || {
        let _ = accept.run();
    });
    (server, Client::connect(&addr).expect("client"))
}

fn join_shutdown(server: &Server, handles: Vec<WorkerHandle>) {
    shutdown_workers(server);
    for h in handles {
        let outcome = h.join().expect("worker thread").expect("serve");
        assert_eq!(outcome, ServeOutcome::Shutdown);
    }
}

/// Runs a triangle count on `snapshot` and returns the graph bytes its
/// driver sent, after checking the count against a single-process run.
fn triangles(client: &mut Client, snapshot: &str, token: &str) -> u64 {
    let job = client
        .submit("t", 0, snapshot, &TRIANGLES, token)
        .expect("submit");
    match client.wait(job).expect("wait") {
        JobTerminal::Done { .. } => {}
        other => panic!("job {job} did not finish: {other:?}"),
    }
    let (count, _, report) = client.fetch_result(job).expect("result");
    let fg = FractalContext::new(ClusterConfig::local(1, 1))
        .fractal_graph(load_snapshot(snapshot).expect("snapshot"));
    assert_eq!(count, cliques::count_kclist(&fg, 3), "{snapshot}");
    decode_report(&report)
        .expect("report")
        .faults
        .graph_bytes_sent
}

/// The size of `snapshot`'s encoded graph.
fn graph_size(snapshot: &str) -> u64 {
    encode_graph(&load_snapshot(snapshot).expect("snapshot")).len() as u64
}

/// The first job on a snapshot sends its graph to each worker; the next
/// sends none, and both count exactly.
#[test]
fn a_second_job_on_a_snapshot_sends_no_graph_bytes() {
    within_secs(120, || {
        let (handles, addrs) = start_workers(2, 1);
        let (server, mut client) = start_server(&addrs, ServeConfig::default());
        assert_eq!(
            triangles(&mut client, SNAPSHOT, "a"),
            2 * graph_size(SNAPSHOT)
        );
        let held = server.graphs_held();
        assert_eq!(held.len(), 2);
        assert!(held.iter().all(|ids| ids.len() == 1 && *ids == held[0]));
        assert_eq!(triangles(&mut client, SNAPSHOT, "b"), 0);
        assert_eq!(server.graphs_held(), held);
        join_shutdown(&server, handles);
    });
}

/// With a budget that holds one snapshot, each load evicts the other:
/// the workers forget an evicted snapshot, and one loaded again takes a
/// new id and is sent again.
#[test]
fn an_evicted_snapshot_is_forgotten_and_sent_again() {
    within_secs(120, || {
        let (handles, addrs) = start_workers(2, 1);
        let config = ServeConfig {
            snapshot_budget_bytes: 1,
            ..ServeConfig::default()
        };
        let (server, mut client) = start_server(&addrs, config);
        let mut ids = Vec::new();
        for (snapshot, token) in [(SNAPSHOT, "a"), (OTHER, "b"), (SNAPSHOT, "c")] {
            assert_eq!(
                triangles(&mut client, snapshot, token),
                2 * graph_size(snapshot)
            );
            let held = server.graphs_held();
            assert_eq!(held[0].len(), 1, "a worker holds {held:?}");
            assert_eq!(held[1], held[0]);
            ids.push(held[0][0]);
        }
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
        join_shutdown(&server, handles);
    });
}

/// A worker that reconnects — here to a restarted daemon — holds nothing
/// on its new connection, so it is sent the graph again.
#[test]
fn a_reconnected_worker_is_sent_the_graph_again() {
    within_secs(120, || {
        let (handles, addrs) = start_workers(1, 2);
        let (first, mut client) = start_server(&addrs, ServeConfig::default());
        assert_eq!(triangles(&mut client, SNAPSHOT, "a"), graph_size(SNAPSHOT));
        assert_eq!(triangles(&mut client, SNAPSHOT, "b"), 0);
        // Ends the worker's first connection; it then accepts the second.
        shutdown_workers(&first);
        let (second, mut client) = start_server(&addrs, ServeConfig::default());
        assert_eq!(triangles(&mut client, SNAPSHOT, "a"), graph_size(SNAPSHOT));
        join_shutdown(&second, handles);
    });
}

/// A daemon scripted frame by frame over one multiplexed connection.
struct Daemon {
    stream: TcpStream,
    seq: u32,
}

impl Daemon {
    fn physical(&mut self, frame: &Frame) {
        self.seq += 1;
        write_frame(&mut self.stream, self.seq, frame).expect("daemon send");
    }

    fn send(&mut self, job: u64, frame: &Frame) {
        let inner = encode_frame(self.seq, frame);
        self.physical(&Frame::Mux { job, inner });
    }

    /// `job`'s next frame that is not steal traffic or a beat; every pull
    /// is answered with a miss. An ended job's last beats are skipped.
    fn next(&mut self, job: u64) -> Frame {
        loop {
            let (_, frame) = read_frame(&mut self.stream).expect("daemon read");
            let Frame::Mux { job: j, inner } = frame else {
                panic!("expected a Mux envelope, got {frame:?}");
            };
            if j != job {
                continue;
            }
            match decode_frame(&inner).expect("inner frame").1 {
                Frame::StealRequest { round } => self.send(job, &Frame::miss(round)),
                Frame::Heartbeat { .. } => {}
                frame => return frame,
            }
        }
    }

    /// Opens `job`'s session and assigns it the whole of round 0.
    fn start(&mut self, job: u64, part: Vec<u8>, roots: &[u64]) {
        self.send(job, &Frame::hello(Role::Driver, 0));
        let hello = self.next(job);
        assert!(
            matches!(
                hello,
                Frame::Hello {
                    role: Role::Worker,
                    ..
                }
            ),
            "{hello:?}"
        );
        let assign = Frame::Assign {
            round: 0,
            recovery: false,
            job: Some(part),
            seed: None,
            roots: roots.to_vec(),
        };
        self.send(job, &assign);
        self.send(job, &Frame::Done { round: 0 });
    }
}

/// The worker side of the protocol, scripted: a graph sent once serves a
/// later job that only names its id, and after a `Forget` the id names
/// nothing, so a job naming it fails by name.
#[test]
fn a_worker_keeps_a_graph_until_told_to_forget_it() {
    within_secs(60, || {
        let (handles, addrs) = start_workers(1, 1);
        let mut daemon = Daemon {
            stream: TcpStream::connect(addrs[0]).expect("connect"),
            seq: 0,
        };
        let graph = load_snapshot(SNAPSHOT).expect("snapshot");
        let app = AppSpec::Motifs {
            k: 3,
            use_labels: false,
            decomposed: false,
        };
        let fg = FractalContext::new(ClusterConfig::local(1, 1)).fractal_graph(graph.clone());
        let roots = motifs::motifs_fractoid(&fg, 3, false).step_roots();
        let expected = motifs::motifs(&fg, 3);
        let carried = encode_job_part(&app, 5, Some(&encode_graph(&graph)));
        let named = encode_job_part(&app, 5, None);
        let shutdown = Frame::Done {
            round: fractal_net::frame::SHUTDOWN_ROUND,
        };

        for (job, part) in [(1, carried), (2, named.clone())] {
            daemon.start(job, part, &roots);
            match daemon.next(job) {
                Frame::AggFlush { round: 0, agg, .. } => {
                    assert_eq!(decode_motifs_map(&agg).expect("agg"), expected, "job {job}");
                }
                other => panic!("job {job}: expected the flush, got {other:?}"),
            }
            daemon.send(job, &shutdown);
        }
        daemon.physical(&Frame::Forget { graph: 5 });
        daemon.start(3, named, &roots);
        match daemon.next(3) {
            Frame::UnitFailed { round: 0, message } => {
                assert_eq!(message, "graph 5 is not held on this connection");
            }
            other => panic!("expected the job to fail, got {other:?}"),
        }
        daemon.send(3, &shutdown);
        daemon.physical(&shutdown);
        for h in handles {
            assert_eq!(
                h.join().expect("worker").expect("serve"),
                ServeOutcome::Shutdown
            );
        }
    });
}
