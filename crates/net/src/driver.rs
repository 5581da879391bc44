//! The driver process: job partitioning, steal relay, failure recovery
//! and final reduction.
//!
//! The driver is the hub of a star topology: every worker holds exactly
//! one TCP connection, to the driver, and all cross-process traffic —
//! including work stealing — is relayed through it. That buys a simple
//! consistency story: the driver is the single ledger of *word ownership*
//! (which process is responsible for delivering each root word's
//! results), updated at the moment a steal reply is forwarded, so no
//! two-party commit is ever needed. The driver is reliable by model
//! (driver failure fails the job); workers may die at any time.
//!
//! Exactly-once results under failure hinge on one rule: **flush, not
//! completion, is the commit point.** A worker that dies mid-round takes
//! its uncommitted results with it, so *all* its owned words — completed
//! or not — return to the driver's orphan pool and are re-executed by
//! survivors (served directly out of the pool to the next puller, since
//! root units have empty prefixes the driver can encode itself). A worker
//! that dies after the round was declared done but before its `AggFlush`
//! triggers a *recovery assign*: its unflushed word sets re-run on a
//! survivor as an extra pass with stealing disabled.

use crate::app::{Accumulator, Committed};
use crate::blob::{self, AppSpec};
use crate::frame::{expect_hello, Frame, FrameSink, FrameSource, Role, MISS_WORD, SHUTDOWN_ROUND};
use crate::invalid;
use fractal_apps::fsm::DomainSupport;
use fractal_graph::Graph;
use fractal_pattern::CanonicalCode;
use fractal_runtime::{CoreStats, FaultStats, GlobalCoreId, JobReport, PlannerStats};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fractal_runtime::sync::{AtomicBool, Mutex, Ordering};

/// Deterministic fault injection for the cluster substrate: SIGKILL a
/// worker process as soon as it is sent its share of round 0, so it dies
/// owning words it can never report, however short the job.
pub struct ChaosKill {
    /// Index of the worker to kill.
    pub target: usize,
    /// The kill action (e.g. `Child::kill` through a [`LocalCluster`]).
    pub kill: Box<dyn FnMut() + Send>,
}

/// Cluster job description handed to [`run_cluster`].
pub struct DriverConfig {
    /// Which application to run.
    pub app: AppSpec,
    /// The input graph (shipped to workers in the first `Assign`). Held by
    /// `Arc` so the serve daemon can hand many concurrent jobs the same
    /// loaded snapshot without copying it.
    pub graph: Arc<Graph>,
    /// Declare a worker dead when its heartbeats lapse this long (EOF on
    /// its connection is the primary death signal; this is the backstop
    /// for hung-but-connected processes).
    pub heartbeat_timeout: Duration,
    /// Optional process-kill fault injection.
    pub chaos_kill: Option<ChaosKill>,
    /// Cooperative cancellation: when the flag flips true the driver stops
    /// at its next event-loop iteration, shuts the workers' sessions down
    /// and returns a partial result marked `cancelled`.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Progress callback `(round, words_done, words_total)`, invoked from
    /// the driver thread whenever the completed-word count advances. The
    /// serve daemon streams these to clients as `JobEvent::Progress`.
    #[allow(clippy::type_complexity)]
    pub progress: Option<Arc<dyn Fn(u32, u64, u64) + Send + Sync>>,
    /// Chaos hook for the shutdown-race regression test: the driver stalls
    /// this long immediately after broadcasting the first `Done`, so every
    /// worker's final traffic (heartbeats, `AggFlush`, EOF) queues up
    /// behind one blocked event-loop iteration.
    pub chaos_stall_after_done: Option<Duration>,
    /// Invoked at every flush-is-commit boundary (end of a fully flushed
    /// round) with `(rounds_done, cumulative count, cumulative agg blob)`.
    /// The blob is self-contained resume state — the serve daemon journals
    /// it as a `WordSetCommitted` record, so a crashed job restarts from
    /// its last committed round, not from scratch.
    #[allow(clippy::type_complexity)]
    pub on_round_commit: Option<Arc<dyn Fn(u32, u64, &[u8]) + Send + Sync>>,
    /// Start from previously committed state instead of round 0.
    pub resume: Option<ResumeState>,
}

/// Committed state of a partially run job, decoded from its last
/// journalled `WordSetCommitted` record. [`run_cluster_links`] picks up at
/// round `rounds_done` from this result, so a resumed run's final counts
/// are bit-identical to an uninterrupted one.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Fully committed rounds; execution restarts at this round index.
    pub rounds_done: u32,
    /// The result those rounds committed.
    pub committed: Committed,
}

impl DriverConfig {
    /// A config with default failure-detection settings.
    pub fn new(app: AppSpec, graph: Graph) -> Self {
        Self::new_shared(app, Arc::new(graph))
    }

    /// Same, over an already-shared graph snapshot (the serve path).
    pub fn new_shared(app: AppSpec, graph: Arc<Graph>) -> Self {
        DriverConfig {
            app,
            graph,
            heartbeat_timeout: Duration::from_millis(2000),
            chaos_kill: None,
            cancel: None,
            progress: None,
            chaos_stall_after_done: None,
            on_round_commit: None,
            resume: None,
        }
    }
}

/// Per-worker breakdown of a cluster run, for `fractal trace
/// --per-worker` and test assertions.
#[derive(Debug, Clone, Default)]
pub struct WorkerSummary {
    /// Worker name (host:port or a synthetic local name).
    pub name: String,
    /// Executor threads the worker announced in its `Hello`.
    pub cores: u32,
    /// Root words assigned by initial partitioning (all rounds).
    pub assigned: u64,
    /// Root-word completions it heartbeat'd.
    pub completed: u64,
    /// Words transferred *to* it (relayed steals + orphan serves).
    pub stolen_in: u64,
    /// Words transferred *from* it to thieves.
    pub stolen_out: u64,
    /// Corrupt steal units it reported (each re-owned by the driver).
    pub nacks: u64,
    /// `AggFlush` frames received from it.
    pub flushes: u64,
    /// Recovery passes it executed for dead peers.
    pub recoveries: u64,
    /// Externally pulled units it executed (from its metrics reports).
    pub net_units: u64,
    /// Whether the driver declared it dead.
    pub died: bool,
}

/// What a cluster run produced.
pub struct ClusterResult {
    /// The application that ran.
    pub app: AppSpec,
    /// Total result-subgraph count (count-mode apps, e.g. KClist).
    pub count: u64,
    /// Merged motif map (Motifs only).
    pub motifs: HashMap<CanonicalCode, u64>,
    /// Per-round globally filtered frequent-pattern maps (FSM only).
    pub frequent: Vec<HashMap<CanonicalCode, DomainSupport>>,
    /// Driver rounds actually executed.
    pub rounds: u32,
    /// Federated metrics: per-core stats of every worker (remapped to
    /// cluster-wide worker indices), summed counters, driver wall-clock.
    pub report: JobReport,
    /// Per-worker breakdowns.
    pub workers: Vec<WorkerSummary>,
    /// Workers declared dead.
    pub deaths: u64,
    /// Words returned to the orphan pool by deaths or nacks.
    pub orphaned_words: u64,
    /// Recovery passes assigned after post-done deaths.
    pub recovery_assigns: u64,
    /// Successful steal transfers relayed (including orphan serves).
    pub steal_relays: u64,
    /// Whether the job was cancelled before completing (the counters and
    /// maps above then hold only the rounds that fully finished).
    pub cancelled: bool,
}

enum Ev {
    Frame(usize, u32, Frame),
    Dead(usize),
}

struct Conn<K: FrameSink> {
    writer: Option<K>,
    seq: u32,
    alive: bool,
    got_job: bool,
    last_beat: Instant,
    /// Flushes expected / received for the current round.
    expected: u32,
    flushed: u32,
    /// Outstanding passes: the word sets whose results this worker still
    /// owes. Front = oldest; popped on each `AggFlush` (FIFO matches the
    /// worker's assign-order execution). Steal transfers move words
    /// between the *current* (front) passes of victim and thief.
    passes: VecDeque<HashSet<u64>>,
    summary: WorkerSummary,
}

impl<K: FrameSink> Conn<K> {
    fn send_seq(&mut self, seq: u32, frame: &Frame) -> bool {
        let Some(w) = self.writer.as_mut() else {
            return false;
        };
        w.send(seq, frame).is_ok()
    }

    fn send(&mut self, frame: &Frame) -> bool {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.send_seq(seq, frame)
    }
}

/// Per-round ledger.
struct RoundState {
    round: u32,
    /// word → globally completed?
    words: HashMap<u64, bool>,
    done_count: usize,
    /// Words the driver owns and serves directly to the next puller.
    orphans: VecDeque<u64>,
    /// Relayed steals in flight: (victim, forwarded seq) → (thief, the
    /// thief's request seq to echo).
    pending: HashMap<(usize, u32), (usize, u32)>,
    done_broadcast: bool,
}

impl RoundState {
    fn new(round: u32, roots: &[u64]) -> Self {
        RoundState {
            round,
            words: roots.iter().map(|&w| (w, false)).collect(),
            done_count: 0,
            orphans: VecDeque::new(),
            pending: HashMap::new(),
            done_broadcast: false,
        }
    }
}

struct Driver<K: FrameSink> {
    acc: Accumulator,
    conns: Vec<Conn<K>>,
    heartbeat_timeout: Duration,
    chaos_kill: Option<ChaosKill>,
    deaths: u64,
    orphaned_words: u64,
    recovery_assigns: u64,
    steal_relays: u64,
    // Federated metrics accumulators.
    acc_cores: BTreeMap<(usize, usize), CoreStats>,
    bytes_served: u64,
    steal_requests: u64,
    steal_hits: u64,
    faults: FaultStats,
    planner: PlannerStats,
    /// Set by a worker's [`Frame::UnitFailed`]: the job fails with this.
    failed: Option<String>,
}

impl<K: FrameSink> Driver<K> {
    fn alive(&self) -> Vec<usize> {
        (0..self.conns.len())
            .filter(|&i| self.conns[i].alive)
            .collect()
    }

    fn send_or_kill(&mut self, i: usize, frame: &Frame, rs: &mut RoundState) {
        if !self.conns[i].send(frame) {
            self.kill_worker(i, rs);
        }
    }

    /// [`Self::send_or_kill`] under an explicit sequence number: steal
    /// replies echo the request's, a relayed request takes a reserved one.
    fn reply_or_kill(&mut self, i: usize, seq: u32, frame: &Frame, rs: &mut RoundState) {
        if !self.conns[i].send_seq(seq, frame) {
            self.kill_worker(i, rs);
        }
    }

    /// Declares worker `i` dead and reroutes its obligations. Idempotent.
    fn kill_worker(&mut self, i: usize, rs: &mut RoundState) {
        if !self.conns[i].alive {
            return;
        }
        self.conns[i].alive = false;
        self.conns[i].summary.died = true;
        if let Some(mut w) = self.conns[i].writer.take() {
            w.close();
        }
        self.deaths += 1;

        // Relayed steals involving the dead worker.
        let stale: Vec<((usize, u32), (usize, u32))> = rs
            .pending
            .iter()
            .filter(|(&(v, _), &(t, _))| v == i || t == i)
            .map(|(k, v)| (*k, *v))
            .collect();
        for (key, (thief, tseq)) in stale {
            rs.pending.remove(&key);
            // Dead victim: unblock the thief with a miss. (Dead thief:
            // just forget the entry — a later hit reply from the victim
            // finds no match and its word is orphaned below.)
            if key.0 == i && self.conns[thief].alive {
                self.reply_or_kill(thief, tseq, &Frame::miss(rs.round), rs);
            }
        }

        let leftover: Vec<HashSet<u64>> = self.conns[i].passes.drain(..).collect();
        if !rs.done_broadcast {
            // Mid-round death: every owned word — completed or not — is
            // uncommitted (results died with the process). Back to the
            // pool; completions are rolled back.
            for set in leftover {
                for w in set {
                    if let Some(done) = rs.words.get_mut(&w) {
                        if *done {
                            *done = false;
                            rs.done_count -= 1;
                        }
                        rs.orphans.push_back(w);
                        self.orphaned_words += 1;
                    }
                }
            }
        } else {
            // Post-done death: unflushed passes re-run on a survivor as
            // recovery assigns (no stealing; one extra flush each).
            for set in leftover {
                if set.is_empty() {
                    continue;
                }
                let Some(&s) = self.alive().first() else {
                    return; // round loop notices all-dead and errors out
                };
                let mut roots: Vec<u64> = set.iter().copied().collect();
                roots.sort_unstable();
                self.conns[s].passes.push_back(set);
                self.conns[s].expected += 1;
                self.conns[s].summary.recoveries += 1;
                self.recovery_assigns += 1;
                let assign = Frame::Assign {
                    round: rs.round,
                    recovery: true,
                    job: None,
                    seed: None,
                    roots,
                };
                self.send_or_kill(s, &assign, rs);
            }
        }
    }

    /// Records a steal transfer of `word` to `thief`: its current pass
    /// owes the word's results from now on.
    fn hand_over(&mut self, thief: usize, word: u64) {
        let c = &mut self.conns[thief];
        match c.passes.front_mut() {
            Some(front) => {
                front.insert(word);
            }
            None => c.passes.push_back([word].into_iter().collect()),
        }
        c.summary.stolen_in += 1;
        self.steal_relays += 1;
    }

    /// Folds one flushed worker report into the federated one. Its
    /// `steal_requests`/`steal_hits` are the worker's in-process steal
    /// servers' (zero under `WsMode::InternalOnly`); the cross-process
    /// steals are counted where this driver relays them — a request per
    /// thief `StealRequest` frame, a hit per `steal_relays`.
    fn accumulate_report(&mut self, i: usize, report: JobReport) {
        for (id, s) in report.cores {
            self.conns[i].summary.net_units += s.net_units;
            self.acc_cores.entry((i, id.core)).or_default().absorb(&s);
        }
        self.bytes_served += report.bytes_served;
        self.steal_requests += report.steal_requests;
        self.steal_hits += report.steal_hits;
        self.faults.absorb(&report.faults);
        // Every worker runs the same compiled plan: keep the shared
        // counters instead of summing duplicates.
        self.planner.absorb(&report.planner);
    }

    fn handle_frame(
        &mut self,
        i: usize,
        seq: u32,
        frame: Frame,
        rs: &mut RoundState,
    ) -> io::Result<()> {
        if !self.conns[i].alive {
            return Ok(());
        }
        // Any frame is proof of life, not just heartbeats: a worker whose
        // final AggFlush sat in the event queue during a slow iteration
        // must not be judged stale by a clock that kept running while its
        // delivered traffic waited to be processed.
        self.conns[i].last_beat = Instant::now();
        match frame {
            Frame::Heartbeat { round, completed } => {
                if round == rs.round {
                    self.conns[i].summary.completed += completed.len() as u64;
                    for w in &completed {
                        if let Some(done) = rs.words.get_mut(w) {
                            if !*done {
                                *done = true;
                                rs.done_count += 1;
                            }
                        }
                    }
                }
            }
            Frame::StealRequest { round } => {
                self.steal_requests += 1;
                if round != rs.round || rs.done_broadcast {
                    self.reply_or_kill(i, seq, &Frame::miss(round), rs);
                } else if let Some(w) = rs.orphans.pop_front() {
                    // Serve the orphan directly: a root unit has an empty
                    // prefix, so the driver encodes it itself.
                    self.hand_over(i, w);
                    // A failed send re-orphans w via the thief's pass.
                    self.reply_or_kill(i, seq, &Frame::root_unit(round, w), rs);
                } else {
                    // Relay to the victim with the most unfinished words.
                    let victim = self
                        .alive()
                        .into_iter()
                        .filter(|&j| j != i)
                        .map(|j| {
                            let remaining = self.conns[j]
                                .passes
                                .front()
                                .map(|s| s.iter().filter(|w| !rs.words[*w]).count())
                                .unwrap_or(0);
                            (remaining, j)
                        })
                        .filter(|&(n, _)| n > 0)
                        .max_by_key(|&(n, _)| n)
                        .map(|(_, j)| j);
                    match victim {
                        Some(j) => {
                            let fwd_seq = self.conns[j].seq;
                            self.conns[j].seq = fwd_seq.wrapping_add(1);
                            rs.pending.insert((j, fwd_seq), (i, seq));
                            self.reply_or_kill(j, fwd_seq, &Frame::StealRequest { round }, rs);
                        }
                        None => self.reply_or_kill(i, seq, &Frame::miss(round), rs),
                    }
                }
            }
            Frame::StealReply { round, word, unit } => {
                if round != rs.round {
                    return Ok(());
                }
                let hit = word != MISS_WORD && unit.is_some() && rs.words.contains_key(&word);
                match rs.pending.remove(&(i, seq)) {
                    Some((thief, tseq)) => {
                        if hit {
                            // Ownership transfer, recorded here — the
                            // victim has already claimed the word out of
                            // its queues, so from this moment the thief
                            // (or, on its death, the orphan pool) is the
                            // word's only live owner.
                            if let Some(front) = self.conns[i].passes.front_mut() {
                                front.remove(&word);
                            }
                            self.conns[i].summary.stolen_out += 1;
                            if self.conns[thief].alive {
                                self.hand_over(thief, word);
                                let fwd = Frame::StealReply { round, word, unit };
                                self.reply_or_kill(thief, tseq, &fwd, rs);
                            } else {
                                rs.orphans.push_back(word);
                                self.orphaned_words += 1;
                            }
                        } else if self.conns[thief].alive {
                            self.reply_or_kill(thief, tseq, &Frame::miss(round), rs);
                        }
                    }
                    None => {
                        // The thief died while this relay was in flight.
                        // The victim still claimed the word out — orphan
                        // it so a survivor re-executes it.
                        if hit {
                            if let Some(front) = self.conns[i].passes.front_mut() {
                                front.remove(&word);
                            }
                            rs.orphans.push_back(word);
                            self.orphaned_words += 1;
                        }
                    }
                }
            }
            Frame::Nack { round, word } => {
                if round == rs.round {
                    self.conns[i].summary.nacks += 1;
                    if let Some(front) = self.conns[i].passes.front_mut() {
                        front.remove(&word);
                    }
                    if rs.words.contains_key(&word) {
                        rs.orphans.push_back(word);
                        self.orphaned_words += 1;
                    }
                }
            }
            Frame::Ack { .. } => {} // metrics already counted at forward
            Frame::UnitFailed { round, message } => {
                if round == rs.round && self.failed.is_none() {
                    let name = &self.conns[i].summary.name;
                    self.failed = Some(format!(
                        "a unit failed on worker {name} in round {round}: {message}"
                    ));
                }
            }
            Frame::AggFlush {
                round,
                count,
                agg,
                report,
            } => {
                if round != rs.round {
                    return Ok(());
                }
                self.conns[i].flushed += 1;
                self.conns[i].summary.flushes += 1;
                self.conns[i].passes.pop_front();
                self.acc
                    .absorb(count, &agg)
                    .map_err(|e| invalid(format!("agg flush: {e}")))?;
                let rep = blob::decode_report(&report)
                    .map_err(|e| invalid(format!("report flush: {e}")))?;
                self.accumulate_report(i, rep);
            }
            // Session and serve-plane frames are never driver-bound on a
            // worker link; ignore them like any other stale traffic.
            Frame::Hello { .. }
            | Frame::Assign { .. }
            | Frame::Done { .. }
            | Frame::Submit { .. }
            | Frame::Status { .. }
            | Frame::Cancel { .. }
            | Frame::Result { .. }
            | Frame::JobEvent { .. }
            | Frame::Mux { .. }
            | Frame::Watch { .. } => {}
        }
        Ok(())
    }
}

fn handle_ev<K: FrameSink>(drv: &mut Driver<K>, rs: &mut RoundState, ev: Ev) -> io::Result<()> {
    match ev {
        Ev::Frame(i, seq, frame) => drv.handle_frame(i, seq, frame, rs),
        Ev::Dead(i) => {
            drv.kill_worker(i, rs);
            Ok(())
        }
    }
}

/// Runs a cluster job over already-connected worker TCP streams and
/// reduces the final result. `names` label the workers in reports
/// (host:port or synthetic). Returns an error for driver-side failures
/// (handshake, corrupt flush blobs, all workers dead) and for a unit that
/// failed with no retries left (a worker's [`Frame::UnitFailed`]; the
/// error names its panic, and the workers' sessions are shut down as on
/// cancel) — individual worker deaths are recovered from and surfaced in
/// the result's counters.
pub fn run_cluster(
    streams: Vec<TcpStream>,
    names: Vec<String>,
    config: DriverConfig,
) -> io::Result<ClusterResult> {
    let mut links = Vec::with_capacity(streams.len());
    for stream in streams {
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        links.push((reader, stream));
    }
    run_cluster_links(links, names, config)
}

/// Runs a cluster job over generic frame transports — one
/// `(source, sink)` pair per worker session. This is the whole driver:
/// [`run_cluster`] is a thin TCP adapter over it, and the serve daemon
/// calls it with per-job virtual channels demultiplexed out of shared
/// physical worker connections.
pub fn run_cluster_links<S, K>(
    links: Vec<(S, K)>,
    names: Vec<String>,
    config: DriverConfig,
) -> io::Result<ClusterResult>
where
    S: FrameSource + 'static,
    K: FrameSink + 'static,
{
    assert_eq!(links.len(), names.len(), "one name per worker link");
    assert!(!links.is_empty(), "need at least one worker");
    let DriverConfig {
        app,
        graph,
        heartbeat_timeout,
        chaos_kill,
        cancel,
        progress,
        chaos_stall_after_done,
        on_round_commit,
        resume,
    } = config;
    let job_blob = blob::encode_job(&app, &graph);
    // Identical on every process, and for FSM the same every round
    // (aggregation filters prune only deeper levels).
    let roots = app.root_words(&graph);
    // Resumed jobs pick up their committed result and skip the rounds
    // that already flushed: a resumed run replays no work, so its final
    // counts are bit-identical to an uninterrupted run.
    let resume = resume.unwrap_or_default();
    let acc = Accumulator::new(app, &graph, resume.rounds_done, resume.committed);

    let (tx, rx): (_, Receiver<Ev>) = channel();
    let mut conns = Vec::with_capacity(links.len());
    for (i, ((mut source, mut sink), name)) in links.into_iter().zip(names).enumerate() {
        sink.send(0, &Frame::hello(Role::Driver, 0))?;
        let cores = expect_hello(source.recv(), Role::Worker)
            .map_err(|e| io::Error::new(e.kind(), format!("worker {name}: {e}")))?;
        let txc = tx.clone();
        thread::spawn(move || loop {
            match source.recv() {
                Ok((seq, f)) => {
                    if txc.send(Ev::Frame(i, seq, f)).is_err() {
                        break;
                    }
                }
                Err(_) => {
                    let _ = txc.send(Ev::Dead(i));
                    break;
                }
            }
        });
        conns.push(Conn {
            writer: Some(sink),
            seq: 1,
            alive: true,
            got_job: false,
            last_beat: Instant::now(),
            expected: 0,
            flushed: 0,
            passes: VecDeque::new(),
            summary: WorkerSummary {
                name,
                cores,
                ..WorkerSummary::default()
            },
        });
    }
    drop(tx);

    let start = Instant::now();
    let mut drv = Driver {
        acc,
        conns,
        heartbeat_timeout,
        chaos_kill,
        deaths: 0,
        orphaned_words: 0,
        recovery_assigns: 0,
        steal_relays: 0,
        acc_cores: BTreeMap::new(),
        bytes_served: 0,
        steal_requests: 0,
        steal_hits: 0,
        faults: FaultStats::default(),
        planner: PlannerStats::default(),
        failed: None,
    };

    let mut stall_after_done = chaos_stall_after_done;
    let mut cancelled = false;
    let is_cancelled = || {
        cancel
            .as_ref()
            // ordering: Relaxed — the flag is a one-way latch polled every
            // event-loop iteration; no data is published through it.
            .is_some_and(|c| c.load(Ordering::Relaxed))
    };

    'rounds: for round in drv.acc.remaining() {
        let alive = drv.alive();
        if alive.is_empty() {
            return Err(invalid("all workers died"));
        }
        let mut rs = RoundState::new(round, &roots);
        let seed_blob = drv.acc.seed();

        // Partition root words round-robin over live workers and assign.
        let mut parts: Vec<Vec<u64>> = vec![Vec::new(); drv.conns.len()];
        for (j, &w) in roots.iter().enumerate() {
            parts[alive[j % alive.len()]].push(w);
        }
        for &i in &alive {
            let part = std::mem::take(&mut parts[i]);
            let c = &mut drv.conns[i];
            c.expected = 1;
            c.flushed = 0;
            c.passes.clear();
            c.passes.push_back(part.iter().copied().collect());
            c.summary.assigned += part.len() as u64;
            let job = if c.got_job {
                None
            } else {
                c.got_job = true;
                Some(job_blob.clone())
            };
            let assign = Frame::Assign {
                round,
                recovery: false,
                job,
                seed: seed_blob.clone(),
                roots: part,
            };
            drv.send_or_kill(i, &assign, &mut rs);
            if round == 0 && drv.chaos_kill.as_ref().is_some_and(|ck| ck.target == i) {
                #[expect(clippy::expect_used, reason = "is_some_and checked it on this line")]
                (drv.chaos_kill.take().expect("checked").kill)();
            }
        }

        // Event loop: run the round to completion + full flush.
        let mut last_progress = 0usize;
        loop {
            if is_cancelled() {
                cancelled = true;
                break 'rounds;
            }
            if drv.failed.is_some() {
                break 'rounds;
            }
            if !rs.done_broadcast && rs.done_count == rs.words.len() {
                rs.done_broadcast = true;
                let done = Frame::Done { round };
                for i in drv.alive() {
                    drv.send_or_kill(i, &done, &mut rs);
                }
                if let Some(stall) = stall_after_done.take() {
                    // Chaos: block the loop so every worker's post-Done
                    // traffic queues behind this one iteration.
                    thread::sleep(stall);
                }
            }
            if rs.done_broadcast {
                let all_flushed = drv
                    .alive()
                    .iter()
                    .all(|&i| drv.conns[i].flushed >= drv.conns[i].expected);
                if all_flushed {
                    break;
                }
            }
            if drv.alive().is_empty() {
                return Err(invalid("all workers died"));
            }
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ev) => {
                    handle_ev(&mut drv, &mut rs, ev)?;
                    // Drain everything already queued before judging
                    // staleness: a slow previous iteration must not turn a
                    // worker's *delivered-but-unprocessed* heartbeats and
                    // final AggFlush into a death sentence. A genuinely
                    // silent worker contributes nothing here, so the
                    // hung-process backstop below still fires for it.
                    while let Ok(ev) = rx.try_recv() {
                        handle_ev(&mut drv, &mut rs, ev)?;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(invalid("all worker connections lost"))
                }
            }
            if rs.done_count != last_progress {
                last_progress = rs.done_count;
                if let Some(p) = &progress {
                    p(round, rs.done_count as u64, rs.words.len() as u64);
                }
            }
            let stale: Vec<usize> = drv
                .alive()
                .into_iter()
                .filter(|&i| drv.conns[i].last_beat.elapsed() > drv.heartbeat_timeout)
                .collect();
            for i in stale {
                drv.kill_worker(i, &mut rs);
            }
        }

        // Flush-is-commit boundary: every flush of this round is merged,
        // so the committed result is durable-safe to publish.
        let over = drv.acc.commit_round();
        if let Some(commit) = &on_round_commit {
            commit(
                drv.acc.rounds(),
                drv.acc.committed().count,
                &drv.acc.encode(),
            );
        }
        if over {
            break;
        }
    }

    let shutdown = Frame::Done {
        round: SHUTDOWN_ROUND,
    };
    for i in drv.alive() {
        let _ = drv.conns[i].send(&shutdown);
    }
    if let Some(message) = drv.failed {
        return Err(invalid(message));
    }

    let cores = drv
        .acc_cores
        .into_iter()
        .map(|((worker, core), stats)| (GlobalCoreId { worker, core }, stats))
        .collect();
    let report = JobReport {
        elapsed: start.elapsed(),
        cores,
        bytes_served: drv.bytes_served,
        steal_requests: drv.steal_requests,
        // A cross-process hit is a reply that carried a unit: a relay.
        steal_hits: drv.steal_hits + drv.steal_relays,
        faults: drv.faults,
        planner: drv.planner,
        trace: None,
        workers: drv.conns.len(),
    };
    let rounds = drv.acc.rounds();
    let Committed {
        count,
        motifs,
        frequent,
    } = drv.acc.into_committed();
    Ok(ClusterResult {
        app,
        count,
        motifs,
        frequent,
        rounds,
        report,
        workers: drv.conns.into_iter().map(|c| c.summary).collect(),
        deaths: drv.deaths,
        orphaned_words: drv.orphaned_words,
        recovery_assigns: drv.recovery_assigns,
        steal_relays: drv.steal_relays,
        cancelled,
    })
}

/// Renders the per-worker breakdown table (`fractal trace --per-worker`).
pub fn render_per_worker(result: &ClusterResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>5} {:>8} {:>9} {:>9} {:>10} {:>5} {:>7} {:>9} {:>9} {:>5}\n",
        "worker",
        "cores",
        "assigned",
        "completed",
        "stolen_in",
        "stolen_out",
        "nacks",
        "flushes",
        "recovered",
        "net_units",
        "died"
    ));
    for w in &result.workers {
        out.push_str(&format!(
            "{:<18} {:>5} {:>8} {:>9} {:>9} {:>10} {:>5} {:>7} {:>9} {:>9} {:>5}\n",
            w.name,
            w.cores,
            w.assigned,
            w.completed,
            w.stolen_in,
            w.stolen_out,
            w.nacks,
            w.flushes,
            w.recoveries,
            w.net_units,
            if w.died { "yes" } else { "no" }
        ));
    }
    out.push_str(&format!(
        "rounds={} deaths={} orphaned={} recovery_assigns={} steal_relays={} elapsed={:?}\n",
        result.rounds,
        result.deaths,
        result.orphaned_words,
        result.recovery_assigns,
        result.steal_relays,
        result.report.elapsed
    ));
    out
}

/// A locally spawned fleet of worker subprocesses, used by
/// `fractal submit --local-cluster N` and the chaos harness. Workers are
/// spawned with `--listen 127.0.0.1:0` and report their bound address on
/// stdout as `LISTENING <addr>`. Dropping the cluster kills and reaps all
/// children.
pub struct LocalCluster {
    children: Arc<Mutex<Vec<Child>>>,
    addrs: Vec<SocketAddr>,
}

impl LocalCluster {
    /// Spawns `n` workers with caller-built commands (the CLI re-executes
    /// itself as `worker --listen 127.0.0.1:0 --cores <c>`, the chaos
    /// harness with a hidden worker-mode argument). Each child must print
    /// `LISTENING <addr>` as its first stdout line.
    pub fn spawn_with(
        n: usize,
        mut make: impl FnMut(usize) -> Command,
    ) -> io::Result<LocalCluster> {
        let mut children = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n {
            let mut cmd = make(i);
            cmd.stdout(Stdio::piped());
            let mut child = cmd.spawn()?;
            #[expect(
                clippy::expect_used,
                reason = "stdout was set to Stdio::piped() before the spawn"
            )]
            let stdout = child.stdout.take().expect("stdout piped");
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let addr: SocketAddr = line
                .trim()
                .strip_prefix("LISTENING ")
                .ok_or_else(|| invalid(format!("worker {i}: bad banner {line:?}")))?
                .parse()
                .map_err(|e| invalid(format!("worker {i}: bad address: {e}")))?;
            // Keep the pipe drained so the child can never block on stdout.
            thread::spawn(move || {
                let _ = io::copy(&mut reader, &mut io::sink());
            });
            children.push(child);
            addrs.push(addr);
        }
        Ok(LocalCluster {
            children: Arc::new(Mutex::new(children)),
            addrs,
        })
    }

    /// The workers' listen addresses.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Opens one driver connection per worker, in index order.
    pub fn connect(&self) -> io::Result<Vec<TcpStream>> {
        self.addrs.iter().map(TcpStream::connect).collect()
    }

    /// A closure that SIGKILLs worker `i` when invoked (the chaos-kill
    /// action for [`ChaosKill`]).
    pub fn kill_fn(&self, i: usize) -> Box<dyn FnMut() + Send> {
        let children = Arc::clone(&self.children);
        Box::new(move || {
            if let Some(child) = children.lock().get_mut(i) {
                let _ = child.kill();
            }
        })
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        let mut children = self.children.lock();
        for child in children.iter_mut() {
            let _ = child.kill();
        }
        for child in children.iter_mut() {
            let _ = child.wait();
        }
    }
}
