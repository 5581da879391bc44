//! The four workloads, and the hidden `worker` and `daemon` verbs that
//! the cluster and serve workloads re-execute this binary with.
//!
//! Every workload runs `Sizes::setup_reps` timed set-ups, `WARMUPS`
//! discarded jobs and then a fixed count of timed jobs. No workload runs more than
//! two compute threads: client, driver and harness threads only block.

use crate::inputs::{self, local_fg, Sizes};
use crate::oracle::{self, Expected};
use crate::trace::Tracer;
use crate::util::{peak_rss_mb, timed, Rng};
use fractal_apps::planned::{motifs_planned, PlanMode};
use fractal_core::{run_plan_counts, FractalGraph};
use fractal_graph::io::load_adjacency_list;
use fractal_net::blob::{decode_fsm_seeds, decode_motifs_map};
use fractal_net::driver::ClusterResult;
use fractal_net::serve::shutdown_workers;
use fractal_net::{
    run_cluster, AppSpec, Client, DriverConfig, JobTerminal, LocalCluster, ServeConfig, Server,
};
use fractal_pattern::{CanonicalCode, CountingPlan, GraphStats};
use fractal_runtime::JobReport;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const WARMUPS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MotifsEnum,
    MotifsPlan,
    FsmCluster,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MotifsEnum,
        Workload::MotifsPlan,
        Workload::FsmCluster,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MotifsEnum => "motifs_enum",
            Workload::MotifsPlan => "motifs_plan",
            Workload::FsmCluster => "fsm_cluster",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Compute threads the workload's jobs may use.
    pub fn cores(self) -> usize {
        match self {
            Workload::MotifsPlan => 1,
            _ => 2,
        }
    }
}

/// The job classes of `serve_mix`, indexed by `JobSample::class`.
pub const SERVE_CLASSES: [&str; 4] = [
    "serve_motifs3",
    "serve_kclist3",
    "serve_fsm1",
    "serve_kclist5",
];
pub const BIG_CLASS: usize = 3;

fn serve_app(class: usize, s: &Sizes) -> AppSpec {
    match class {
        0 => AppSpec::Motifs {
            k: 3,
            use_labels: false,
            decomposed: false,
        },
        1 => AppSpec::Kclist { k: 3 },
        2 => AppSpec::Fsm {
            min_support: s.small_fsm_support,
            max_edges: 1,
        },
        _ => AppSpec::Kclist { k: 5 },
    }
}

/// One job as the harness saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobSample {
    /// From the call that starts the job to its fingerprint in hand.
    pub secs: f64,
    /// Finished without error and with the oracle's fingerprint; set
    /// after the timed window and after memory is read.
    pub correct: bool,
    /// Ran with bench-side spans on (traced runs alternate).
    pub traced: bool,
    /// `serve_mix`: job class and the client-side phases.
    pub class: usize,
    pub ack_s: f64,
    pub first_event_s: f64,
    pub fetch_s: f64,
}

/// What the program reported about the last timed job.
pub enum LastReport {
    Cluster(Box<ClusterResult>),
    /// The report blob of a serve job, decoded.
    Serve(Box<JobReport>),
}

pub struct Measured {
    pub setup_s: Vec<f64>,
    /// `fsm_cluster`: the part of each set-up spent spawning the workers.
    pub spawn_s: Vec<f64>,
    pub jobs: Vec<JobSample>,
    pub window_s: f64,
    pub peak_rss_mb: f64,
    pub last: Option<LastReport>,
    /// `serve_mix`: the journal directory of the measured daemon, left in
    /// place after the daemon exits.
    pub journal_dir: Option<PathBuf>,
}

impl Measured {
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| !j.correct).count()
    }

    /// Durations of the correct jobs, optionally of one tracing state.
    pub fn job_secs(&self, traced: Option<bool>) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| j.correct && traced.is_none_or(|t| j.traced == t))
            .map(|j| j.secs)
            .collect()
    }

    /// Marks job `i` by its fingerprint, or by the error it ended with.
    fn check(&mut self, i: usize, got: &io::Result<String>, want: &str) {
        self.jobs[i].correct = got.as_ref().is_ok_and(|fp| fp == want);
        if !self.jobs[i].correct {
            eprintln!("job {i}: expected {want}, got {got:?}");
        }
    }
}

pub struct RunOpts<'a> {
    pub sizes: &'a Sizes,
    pub seed: u64,
    /// Timed jobs (per client on `serve_mix`).
    pub jobs: usize,
    /// Timed set-ups; the jobs run on what the last one left.
    pub setup_reps: usize,
    pub scratch: &'a Path,
    pub expected: &'a Expected,
}

pub fn run(w: Workload, o: &RunOpts, tracer: &mut Tracer) -> io::Result<Measured> {
    match w {
        Workload::ServeMix => run_serve_mix(o, tracer),
        _ => run_sequential(w, o, tracer),
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn load(path: &Path) -> io::Result<fractal_graph::Graph> {
    load_adjacency_list(path).map_err(|e| invalid(format!("{}: {e}", path.display())))
}

// ---- motifs_enum, motifs_plan, fsm_cluster: one job at a time ----

/// One malloc arena for a subprocess. With glibc's default of eight per
/// core, which arena a job's thread lands in decided how far the workers'
/// resident memory grew: `serve_mix` read 339–498 MiB over twenty runs of
/// the same code, and 269–287 MiB with one arena.
fn quiet_malloc(cmd: &mut Command) {
    cmd.env("MALLOC_ARENA_MAX", "1");
}

/// Two one-core worker subprocesses of this binary.
fn spawn_workers() -> io::Result<LocalCluster> {
    let exe = std::env::current_exe()?;
    LocalCluster::spawn_with(2, |_| {
        let mut cmd = Command::new(&exe);
        // A piped stdin that is never written reaches EOF when this
        // process ends, however it ends, and the worker then exits.
        cmd.arg("worker").stdin(Stdio::piped());
        quiet_malloc(&mut cmd);
        cmd
    })
}

/// What a user pays before the first job can start: the graph loaded
/// and a context over it, or the cluster spawned. Returns the cluster and
/// the seconds spent spawning it.
fn setup_sequential(
    w: Workload,
    file: &Path,
    t: &mut Tracer,
) -> io::Result<(Option<LocalCluster>, f64)> {
    t.span("setup", -1, |t| {
        let graph = t.span("graph.load", -1, |_| load(file))?;
        if w == Workload::FsmCluster {
            let (secs, cluster) = timed(|| t.span("net.cluster_spawn", -1, |_| spawn_workers()));
            return Ok((Some(cluster?), secs));
        }
        t.span("core.context", -1, |_| {
            std::hint::black_box(local_fg(graph, w.cores()));
        });
        Ok((None, 0.0))
    })
}

/// Mean per-core busy and steal time of a report, as reported children of
/// the open span.
fn report_children(t: &mut Tracer, busy_name: &'static str, reports: &[&JobReport]) {
    let per_core = |f: fn(&fractal_runtime::CoreStats) -> u64| -> u64 {
        reports
            .iter()
            .map(|r| r.cores.iter().map(|(_, c)| f(c)).sum::<u64>() / r.cores.len().max(1) as u64)
            .sum()
    };
    t.reported(busy_name, per_core(|c| c.busy_ns));
    t.reported("runtime.steal", per_core(|c| c.steal_ns));
}

fn motifs_enum_job(fg: &FractalGraph, job: i64, t: &mut Tracer) -> String {
    if !t.on() {
        return oracle::of_motifs(&motifs_planned(fg, 4, false, PlanMode::Enumerate).0);
    }
    // The same work as the call above, split at its layer boundaries.
    t.span("job", job, |t| {
        let fractoid = t.span("apps.motifs_fractoid", job, |_| {
            fractal_apps::motifs::motifs_fractoid(fg, 4, false)
        });
        t.span("core.execute", job, |t| {
            let report = fractoid.execute();
            report_children(t, "enum.busy", &report.steps.iter().collect::<Vec<_>>());
        });
        let map = t.span("core.aggregation", job, |_| {
            fractoid.aggregation::<CanonicalCode, u64>("motifs")
        });
        t.span("bench.fingerprint", job, |_| oracle::of_motifs(&map))
    })
}

fn motifs_plan_job(fg: &FractalGraph, job: i64, t: &mut Tracer) -> String {
    if !t.on() {
        return oracle::of_motifs(&motifs_planned(fg, 5, false, PlanMode::Decomposed).0);
    }
    t.span("job", job, |t| {
        let plan = t.span("pattern.plan_compile", job, |_| {
            CountingPlan::plan_motifs(5, GraphStats::of(fg.graph()))
        });
        let totals = t.span("core.run_plan_counts", job, |t| {
            let (totals, report) = run_plan_counts(fg, &plan);
            report_children(
                t,
                "pattern.exec.busy",
                &report.steps.iter().collect::<Vec<_>>(),
            );
            totals
        });
        let counts = t.span("pattern.finalize", job, |_| plan.finalize(&totals));
        t.span("bench.fingerprint", job, |_| {
            oracle::of_motifs(counts.iter().map(|(c, n)| (c, n)))
        })
    })
}

fn fsm_cluster_job(
    cluster: &LocalCluster,
    graph: fractal_graph::Graph,
    s: &Sizes,
    job: i64,
    t: &mut Tracer,
) -> io::Result<(String, ClusterResult)> {
    let app = AppSpec::Fsm {
        min_support: s.fsm_support,
        max_edges: 3,
    };
    t.span("job", job, |t| {
        let streams = t.span("net.connect", job, |_| cluster.connect())?;
        let names = (0..streams.len()).map(|i| format!("local{i}")).collect();
        let result = t.span("net.run_cluster", job, |t| {
            let result = run_cluster(streams, names, DriverConfig::new(app, graph));
            if let Ok(r) = &result {
                report_children(t, "workers.busy", &[&r.report]);
            }
            result
        })?;
        let fp = t.span("bench.fingerprint", job, |_| {
            oracle::of_fsm_rounds(&result.frequent)
        });
        Ok((fp, result))
    })
}

fn run_sequential(w: Workload, o: &RunOpts, tracer: &mut Tracer) -> io::Result<Measured> {
    let base = match w {
        Workload::MotifsEnum => inputs::enum_base(o.sizes),
        Workload::MotifsPlan => inputs::plan_base(o.sizes),
        _ => inputs::fsm_base(o.sizes),
    };
    let total = WARMUPS + o.jobs;
    let files = inputs::write_relabelings(&base, o.seed, total, o.scratch, w.name())?;
    drop(base);

    let (mut setup_s, mut spawn_s) = (Vec::new(), Vec::new());
    let mut cluster = None;
    for rep in 0..o.setup_reps {
        // The previous repetition is torn down outside the timing.
        drop(cluster.take());
        let (secs, out) = timed(|| setup_sequential(w, &files[rep % total], tracer));
        let (c, spawn) = out?;
        setup_s.push(secs);
        spawn_s.push(spawn);
        cluster = c;
    }

    let mut m = Measured {
        setup_s,
        spawn_s,
        jobs: Vec::new(),
        window_s: 0.0,
        peak_rss_mb: 0.0,
        last: None,
        journal_dir: None,
    };
    let mut fingerprints = Vec::new();
    let mut off = Tracer::off();
    let mut window = Instant::now();
    for i in 0..total {
        // Every job gets its own relabeling, loaded outside the timing. A
        // traced run alternates plain and traced jobs, and gives each pair
        // one relabeling, so that their ratio is the cost of the spans.
        let traced = tracer.on() && i % 2 == 1;
        let graph = load(&files[if tracer.on() { i - i % 2 } else { i }])?;
        if i == WARMUPS {
            window = Instant::now();
        }
        let t = if traced { &mut *tracer } else { &mut off };
        let job = i as i64 - WARMUPS as i64;
        let mut t0 = Instant::now();
        let fp = match &cluster {
            Some(c) => fsm_cluster_job(c, graph, o.sizes, job, t).map(|(fp, result)| {
                m.last = Some(LastReport::Cluster(Box::new(result)));
                fp
            }),
            None => {
                let fg = local_fg(graph, w.cores());
                t0 = Instant::now();
                Ok(match w {
                    Workload::MotifsEnum => motifs_enum_job(&fg, job, t),
                    _ => motifs_plan_job(&fg, job, t),
                })
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        if i >= WARMUPS {
            m.jobs.push(JobSample {
                secs,
                traced,
                ..JobSample::default()
            });
            fingerprints.push(fp);
        }
    }
    m.window_s = window.elapsed().as_secs_f64();
    // Memory is read at the end of the timed window, workers still alive,
    // and before any result is checked.
    m.peak_rss_mb = peak_rss_mb();
    for (i, fp) in fingerprints.iter().enumerate() {
        m.check(i, fp, o.expected.get(o.sizes, w.name()));
    }
    Ok(m)
}

// ---- serve_mix: a closed loop of two clients against a daemon ----

/// A `fractal_bench daemon` subprocess: `fractal serve --local-cluster 2
/// --cores 1 --journal <dir>` in all but name.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(journal_dir: &Path) -> io::Result<Daemon> {
        // The daemon logs every journal commit; its stderr goes to a file
        // beside the journal and is quoted if the daemon fails to start.
        let log = journal_dir.with_extension("log");
        let mut cmd = Command::new(std::env::current_exe()?);
        quiet_malloc(&mut cmd);
        let mut child = cmd
            .arg("daemon")
            .arg(journal_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(&log)?)
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("SERVING ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                let log = std::fs::read_to_string(&log).unwrap_or_default();
                invalid(format!("daemon banner {line:?}: {log}"))
            });
        match addr {
            Ok(addr) => Ok(Daemon { child, addr }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }
}

impl Drop for Daemon {
    /// Closing stdin asks the daemon to shut its workers down and exit;
    /// it is killed if it has not done so within five seconds.
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct ServeClient {
    client: Client,
    tenant: &'static str,
    snapshots: [String; 2],
    submitted: usize,
}

impl ServeClient {
    /// Submit, wait, fetch and fingerprint one job; the report blob too.
    fn job(
        &mut self,
        class: usize,
        s: &Sizes,
        job: i64,
        t: &mut Tracer,
    ) -> io::Result<(String, JobSample, Vec<u8>)> {
        let app = serve_app(class, s);
        let snapshot = &self.snapshots[(class == BIG_CLASS) as usize];
        let token = format!("{}-{}", self.tenant, self.submitted);
        self.submitted += 1;
        let (client, tenant) = (&mut self.client, self.tenant);
        let t0 = Instant::now();
        t.span("job", job, |t| {
            let id = t.span("net.submit", job, |_| {
                client.submit(tenant, 0, snapshot, &app, &token)
            })?;
            let ack_s = t0.elapsed().as_secs_f64();
            let mut first_event_s = None;
            let terminal = t.span("net.wait", job, |_| {
                client.wait_with(id, |_, _, _| {
                    first_event_s.get_or_insert(t0.elapsed().as_secs_f64());
                })
            })?;
            if !matches!(terminal, JobTerminal::Done { .. }) {
                return Err(invalid(format!("job {id} ended as {terminal:?}")));
            }
            let (fetch_s, fetched) =
                timed(|| t.span("net.fetch", job, |_| client.fetch_result(id)));
            let (count, agg, report) = fetched?;
            let fp = t.span("bench.fingerprint", job, |_| {
                Ok::<_, io::Error>(match app {
                    AppSpec::Motifs { .. } => oracle::of_motifs(
                        &decode_motifs_map(&agg).map_err(|e| invalid(e.to_string()))?,
                    ),
                    AppSpec::Kclist { .. } => oracle::of_count(count),
                    AppSpec::Fsm { .. } => oracle::of_fsm_rounds(
                        &decode_fsm_seeds(&agg).map_err(|e| invalid(e.to_string()))?,
                    ),
                })
            })?;
            let sample = JobSample {
                secs: t0.elapsed().as_secs_f64(),
                correct: false,
                traced: t.on(),
                class,
                ack_s,
                first_event_s: first_event_s.unwrap_or(ack_s),
                fetch_s,
            };
            Ok((fp, sample, report))
        })
    }
}

/// Daemon, both client connections and one priming job per snapshot, so
/// the snapshot cache is warm.
fn setup_serve(
    o: &RunOpts,
    journal_dir: &Path,
    snapshots: &[String; 2],
    t: &mut Tracer,
) -> io::Result<(Daemon, Vec<ServeClient>)> {
    t.span("setup", -1, |t| {
        let daemon = t.span("net.daemon_spawn", -1, |_| Daemon::spawn(journal_dir))?;
        let mut clients = Vec::new();
        for tenant in ["tenant-a", "tenant-b"] {
            clients.push(ServeClient {
                client: t.span("net.client_connect", -1, |_| Client::connect(daemon.addr))?,
                tenant,
                snapshots: snapshots.clone(),
                submitted: 0,
            });
        }
        for class in [0, BIG_CLASS] {
            let (fp, _, _) = t.span("net.prime", -1, |_| {
                clients[0].job(class, o.sizes, -1, &mut Tracer::off())
            })?;
            if fp != o.expected.get(o.sizes, SERVE_CLASSES[class]) {
                return Err(invalid(format!("priming job {class} returned {fp}")));
            }
        }
        Ok((daemon, clients))
    })
}

/// The job classes of one client: one big job in eight, the small classes
/// in turn, shuffled by the seed. Every seed runs the same multiset.
fn serve_sequence(len: usize, rng: &mut Rng) -> Vec<usize> {
    let mut seq: Vec<usize> = (0..len)
        .map(|i| if i % 8 == 7 { BIG_CLASS } else { i % 3 })
        .collect();
    rng.shuffle(&mut seq);
    seq
}

fn run_serve_mix(o: &RunOpts, tracer: &mut Tracer) -> io::Result<Measured> {
    let mut rng = Rng::new(o.seed);
    let small = o.scratch.join("small.adj");
    let big = o.scratch.join("big.adj");
    for (base, path) in [
        (inputs::small_base(o.sizes), &small),
        (inputs::big_base(o.sizes), &big),
    ] {
        fractal_graph::io::save_adjacency_list(&inputs::relabeled(&base, rng.next()), path)?;
    }
    let snapshots = [
        format!("file:{}", small.display()),
        format!("file:{}", big.display()),
    ];
    let sequences: Vec<Vec<usize>> = (0..2)
        .map(|_| serve_sequence(WARMUPS + o.jobs, &mut rng))
        .collect();

    let mut setup_s = Vec::new();
    let mut env = None;
    let mut journal_dir = PathBuf::new();
    for rep in 0..o.setup_reps {
        drop(env.take());
        journal_dir = o.scratch.join(format!("journal-{rep}"));
        let (secs, out) = timed(|| setup_serve(o, &journal_dir, &snapshots, tracer));
        setup_s.push(secs);
        env = Some(out?);
    }
    let (daemon, clients) = env.expect("at least one set-up");

    // Both clients start together; each is a closed loop.
    let barrier = Barrier::new(3);
    let mut window = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&sequences)
            .map(|(mut c, seq)| {
                let mut t = tracer.fork();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut off = Tracer::off();
                    let mut out = Vec::new();
                    for (i, &class) in seq.iter().enumerate() {
                        if i == WARMUPS {
                            barrier.wait();
                        }
                        let traced = t.on() && i % 2 == 1;
                        let tr = if traced { &mut t } else { &mut off };
                        let job = i as i64 - WARMUPS as i64;
                        out.push((class, c.job(class, o.sizes, job, tr)));
                    }
                    (out.split_off(WARMUPS), t)
                })
            })
            .collect();
        barrier.wait();
        window = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window_s = window.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    drop(daemon);

    let mut m = Measured {
        setup_s,
        spawn_s: Vec::new(),
        jobs: Vec::new(),
        window_s,
        peak_rss_mb,
        last: None,
        journal_dir: Some(journal_dir),
    };
    for (jobs, t) in per_client {
        tracer.absorb(t);
        for (class, outcome) in jobs {
            let (fp, sample, report) = match outcome {
                Ok((fp, sample, report)) => (Ok(fp), sample, report),
                Err(e) => (Err(e), JobSample::default(), Vec::new()),
            };
            m.jobs.push(JobSample { class, ..sample });
            m.check(
                m.jobs.len() - 1,
                &fp,
                o.expected.get(o.sizes, SERVE_CLASSES[class]),
            );
            if let Ok(r) = fractal_net::blob::decode_report(&report) {
                m.last = Some(LastReport::Serve(Box::new(r)));
            }
        }
    }
    Ok(m)
}

// ---- hidden verbs ----

/// Blocks until stdin reaches EOF, which is when the parent closes its
/// end of the pipe or ends.
fn wait_for_stdin_eof() {
    let _ = io::copy(&mut io::stdin().lock(), &mut io::sink());
}

fn announce(line: String) {
    println!("{line}");
    let _ = io::stdout().flush();
}

/// `fractal_bench worker`: a one-core `fractal worker` that serves one
/// session after another, so it outlives jobs.
pub fn worker_main() -> ! {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker listener");
    announce(format!(
        "LISTENING {}",
        listener.local_addr().expect("worker address")
    ));
    std::thread::spawn(|| {
        wait_for_stdin_eof();
        std::process::exit(0);
    });
    let mut errors = 0;
    while errors < 3 {
        match fractal_net::serve(&listener, 1) {
            Ok(_) => errors = 0,
            Err(_) => errors += 1,
        }
    }
    std::process::exit(1);
}

/// `fractal_bench daemon <journal dir>`: the serve daemon on two one-core
/// workers, until stdin closes.
pub fn daemon_main(journal_dir: &str) -> ! {
    let run = || -> io::Result<()> {
        let cluster = spawn_workers()?;
        let workers = cluster
            .connect()?
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, format!("local{i}")))
            .collect();
        let config = ServeConfig {
            journal_dir: Some(PathBuf::from(journal_dir)),
            ..ServeConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let server = Arc::new(Server::bind(listener, workers, config)?);
        announce(format!("SERVING {}", server.local_addr()?));
        let accept = Arc::clone(&server);
        // The accept loop never returns; it ends with the process.
        std::thread::spawn(move || accept.run());
        wait_for_stdin_eof();
        shutdown_workers(&server);
        drop(cluster);
        Ok(())
    };
    match run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("fractal_bench daemon: {e}");
            std::process::exit(1);
        }
    }
}
