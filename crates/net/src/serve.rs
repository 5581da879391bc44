//! `fractal serve`: the long-lived multi-tenant job server (DESIGN.md §12).
//!
//! One daemon process owns the worker pool. Clients connect over the same
//! frame protocol the cluster substrate speaks, submit jobs against
//! *registered graph snapshots*, and stream lifecycle events back. The
//! daemon multiplexes every concurrent job over the same physical worker
//! connections by wrapping each job's session traffic in job-id tagged
//! [`Frame::Mux`] envelopes; on the worker side each job gets its own
//! virtual session, so a job's rounds, steals and flushes are exactly the
//! single-job protocol and its results stay bit-identical to a
//! single-thread run.
//!
//! Three structures do the work:
//!
//! * **Admission + dispatch** — a bounded queue with per-tenant in-flight
//!   quotas and priority-aware FIFO ordering (higher priority first;
//!   submission order breaks ties). Over-quota or over-capacity submits
//!   are *rejected with a clean event*, never hung.
//! * **Snapshot cache** — immutable graphs registered by spec string
//!   (`gen:<name>:<n>:<seed>` or `file:<path>`), loaded once, shared
//!   across jobs via `Arc`'d CSR and evicted LRU against a byte budget.
//!   Eviction only drops the cache's reference: running jobs keep their
//!   snapshot alive through their own `Arc`s.
//! * **Worker links** — one physical connection per worker, owned by a
//!   router thread that demultiplexes `Mux` envelopes to per-job channel
//!   sources. A dead worker (EOF, SIGKILL) drops every registered route,
//!   so each affected job's driver sees that worker die *on its own
//!   session* and re-dispatches the corpse's obligations per affected
//!   job — survivors and unrelated jobs never notice.

use crate::app::{self, Committed};
use crate::blob::{self, AppSpec};
use crate::driver::{run_cluster_links, DriverConfig, ResumeState};
use crate::frame::{
    expect_hello, read_frame, ChannelSource, EventKind, Frame, FrameSink, MuxSink, Role,
    SHUTDOWN_ROUND,
};
use crate::invalid;
use crate::journal::{Journal, Record, Replay, ReplayTerminal};
use crate::linkfault::DedupWindow;
use fractal_graph::{gen, io::load_adjacency_list, Graph};
use fractal_runtime::sync::{AtomicBool, AtomicU32, AtomicU64, Mutex, Ordering};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Admission and resource limits of a serve daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum *queued* (admitted, not yet running) jobs.
    pub max_queue: usize,
    /// Maximum in-flight (queued + running) jobs per tenant.
    pub max_per_tenant: usize,
    /// Maximum concurrently running jobs.
    pub max_running: usize,
    /// Snapshot cache byte budget (approximate, CSR-sized).
    pub snapshot_budget_bytes: u64,
    /// Per-job driver heartbeat staleness timeout.
    pub heartbeat_timeout: Duration,
    /// Directory of the write-ahead job journal. When set, every
    /// admission/commit/terminal transition is journaled (fsynced) before
    /// clients observe it, and [`Server::bind`] replays the journal to
    /// resume incomplete jobs after a crash.
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_queue: 64,
            max_per_tenant: 8,
            max_running: 4,
            snapshot_budget_bytes: 256 << 20,
            heartbeat_timeout: Duration::from_millis(2000),
            journal_dir: None,
        }
    }
}

/// Daemon-wide serve-path counters, snapshotted into every finished job's
/// federated report (and asserted zero off the serve path by the perf
/// gate).
#[derive(Default)]
pub struct ServeStats {
    pub jobs_admitted: AtomicU64,
    pub jobs_rejected: AtomicU64,
    pub snapshot_evictions: AtomicU64,
    /// Valid journal records replayed at startup.
    pub journal_replayed: AtomicU64,
    /// Jobs that restarted from a journaled committed word-set.
    pub resumed_jobs: AtomicU64,
    /// Exactly-once tenant-quota releases (one per terminalized job; the
    /// cancel-vs-dispatch regression test asserts this never double-fires).
    pub quota_releases: AtomicU64,
}

// ---- snapshot cache ----

/// Parses and loads a snapshot spec: `gen:<name>:<n>:<seed>` for the
/// synthetic families or `file:<path>` for an adjacency-list file. The
/// spec string is the snapshot's identity, so two jobs naming the same
/// spec share one loaded graph.
pub fn load_snapshot(spec: &str) -> io::Result<Graph> {
    if let Some(path) = spec.strip_prefix("file:") {
        return load_adjacency_list(path).map_err(|e| invalid(format!("snapshot {spec}: {e}")));
    }
    let Some(rest) = spec.strip_prefix("gen:") else {
        return Err(invalid(format!(
            "snapshot {spec}: expected gen:<name>:<n>:<seed> or file:<path>"
        )));
    };
    let parts: Vec<&str> = rest.split(':').collect();
    let [name, n, seed] = parts.as_slice() else {
        return Err(invalid(format!(
            "snapshot {spec}: expected gen:<name>:<n>:<seed>"
        )));
    };
    let n: usize = n
        .parse()
        .map_err(|_| invalid(format!("snapshot {spec}: bad vertex count")))?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| invalid(format!("snapshot {spec}: bad seed")))?;
    // Every `fractal` verb's `--gen` reads its graph through here, so a
    // client-side verification run rebuilds a bit-identical graph.
    Ok(match *name {
        "mico" => gen::mico_like(n, 29, seed),
        "patents" => gen::patents_like(n, 37, seed),
        "youtube" => gen::youtube_like(n, 80, seed),
        "wikidata" => gen::wikidata_like(n, n / 20 + 8, seed),
        "orkut" => gen::orkut_like(n, seed),
        other => return Err(invalid(format!("snapshot {spec}: unknown family {other}"))),
    })
}

/// Rough resident size of a loaded CSR graph.
fn graph_bytes(g: &Graph) -> u64 {
    (g.num_vertices() as u64) * 16 + (g.num_edges() as u64) * 24
}

struct SnapshotEntry {
    graph: Arc<Graph>,
    bytes: u64,
    last_used: u64,
}

struct SnapshotCache {
    budget: u64,
    entries: HashMap<String, SnapshotEntry>,
    used: u64,
    tick: u64,
}

impl SnapshotCache {
    fn new(budget: u64) -> Self {
        SnapshotCache {
            budget,
            entries: HashMap::new(),
            used: 0,
            tick: 0,
        }
    }

    /// Returns the snapshot for `spec`, loading it on first use and
    /// evicting least-recently-used entries past the byte budget. Returns
    /// the evictions performed so the caller can count them.
    fn get_or_load(&mut self, spec: &str) -> io::Result<(Arc<Graph>, u64)> {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(spec) {
            e.last_used = self.tick;
            return Ok((Arc::clone(&e.graph), 0));
        }
        let graph = Arc::new(load_snapshot(spec)?);
        let bytes = graph_bytes(&graph);
        let mut evictions = 0;
        while !self.entries.is_empty() && self.used + bytes > self.budget {
            #[expect(clippy::expect_used, reason = "the loop condition holds entries")]
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            #[expect(clippy::expect_used, reason = "lru was just read from entries")]
            let e = self.entries.remove(&lru).expect("present");
            self.used -= e.bytes;
            evictions += 1;
        }
        self.used += bytes;
        self.entries.insert(
            spec.to_string(),
            SnapshotEntry {
                graph: Arc::clone(&graph),
                bytes,
                last_used: self.tick,
            },
        );
        Ok((graph, evictions))
    }
}

// ---- worker links ----

/// job id → that job's virtual-session frame sender.
type RouteTable = Arc<Mutex<HashMap<u64, Sender<(u32, Frame)>>>>;

/// One physical worker connection, shared by every job.
struct WorkerLink {
    name: String,
    physical: Arc<Mutex<TcpStream>>,
    physical_seq: Arc<AtomicU32>,
    routes: RouteTable,
    dead: Arc<AtomicBool>,
}

impl WorkerLink {
    /// Starts the router thread: demultiplexes inbound `Mux` envelopes to
    /// per-job channels. On physical death it drops every route sender,
    /// so each subscribed job sees this worker die on its own session.
    fn start(stream: TcpStream, name: String) -> io::Result<WorkerLink> {
        stream.set_nodelay(true).ok();
        let mut reader = stream.try_clone()?;
        let link = WorkerLink {
            name,
            physical: Arc::new(Mutex::new(stream)),
            physical_seq: Arc::new(AtomicU32::new(0)),
            routes: Arc::new(Mutex::new(HashMap::new())),
            dead: Arc::new(AtomicBool::new(false)),
        };
        let routes = Arc::clone(&link.routes);
        let dead = Arc::clone(&link.dead);
        thread::spawn(move || {
            // Receive-side half of the link-fault envelope: a worker on a
            // degraded link may send a virtual frame twice, and the
            // drivers' merge paths (AggFlush) are not idempotent — so
            // each job's inner frames pass a dedup window keyed on
            // (seq, content hash): inner seqs alone are not unique
            // because steal replies echo the requester's seq, which can
            // collide with the session's own counter. Entries are tiny
            // and bounded by the jobs this link ever carried.
            let mut dedup: HashMap<u64, DedupWindow> = HashMap::new();
            loop {
                match read_frame(&mut reader) {
                    Ok((_, Frame::Mux { job, inner })) => {
                        if let Ok((seq, f)) = crate::frame::decode_frame(&inner) {
                            // `inner` IS the frame's canonical encoding,
                            // so hashing it equals content_hash(seq, f).
                            let h = fractal_runtime::wire::fnv1a64(&inner);
                            if !dedup.entry(job).or_default().fresh(seq, h) {
                                continue; // injected duplicate
                            }
                            let routes = routes.lock();
                            if let Some(tx) = routes.get(&job) {
                                // A send to a finished job's dropped
                                // receiver is stale traffic; ignore it.
                                let _ = tx.send((seq, f));
                            }
                        }
                    }
                    Ok(_) => {} // stray non-mux traffic
                    Err(_) => break,
                }
            }
            // ordering: SeqCst — the death flag is the only cross-thread signal
            // from the demux thread; pair it conservatively with the reader side.
            dead.store(true, Ordering::SeqCst);
            // Channel EOF is the per-job death signal.
            routes.lock().clear();
        });
        Ok(link)
    }

    fn is_dead(&self) -> bool {
        // ordering: SeqCst — pairs with the demux thread's store; worker death
        // is rare, so the stronger ordering costs nothing on the dispatch path.
        self.dead.load(Ordering::SeqCst)
    }

    /// Registers a job's route and returns its virtual link. `None` when
    /// the worker is already dead.
    fn open_virtual(&self, job: u64) -> Option<(ChannelSource, MuxSink<TcpStream>)> {
        if self.is_dead() {
            return None;
        }
        let (tx, rx) = channel();
        self.routes.lock().insert(job, tx);
        if self.is_dead() {
            // The router may have cleared routes just before our insert;
            // re-check so a dead link never looks open.
            self.routes.lock().remove(&job);
            return None;
        }
        let sink = MuxSink::new(
            job,
            Arc::clone(&self.physical),
            Arc::clone(&self.physical_seq),
        );
        Some((ChannelSource(rx), sink))
    }

    fn close_virtual(&self, job: u64) {
        self.routes.lock().remove(&job);
    }
}

// ---- job table ----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

/// A finished job's result payload, served to `Result` fetches.
struct JobOutcome {
    count: u64,
    agg: Vec<u8>,
    report: Vec<u8>,
}

struct JobRecord {
    tenant: String,
    priority: u8,
    submit_seq: u64,
    app: AppSpec,
    snapshot: String,
    /// Client-generated idempotency token ("" = none).
    token: String,
    state: JobState,
    cancel: Arc<AtomicBool>,
    outcome: Option<JobOutcome>,
    error: String,
    subscribers: Vec<Arc<ClientConn>>,
    /// Whether this job's tenant-quota slot has been given back. Exactly
    /// one release per job, whatever the cancel/dispatch interleaving.
    quota_released: bool,
    /// Base of this job's `event_seq` numbers: `(journaled starts) << 32`.
    /// Each daemon restart re-emits under a higher epoch, so sequence
    /// numbers never move backwards and a reconnecting watcher's
    /// `after_seq` filter stays sound across restarts.
    epoch_base: u64,
    /// This epoch's sequenced event log, replayed to `Watch` subscribers.
    events: Vec<Frame>,
    /// Journaled committed word-set to resume from (restart path).
    resume: Option<ResumeState>,
}

struct ServerState {
    next_job: u64,
    submit_seq: u64,
    jobs: HashMap<u64, JobRecord>,
    /// Admitted, not yet running (ordering applied at pop time).
    queue: Vec<u64>,
    running: usize,
    tenant_inflight: HashMap<String, usize>,
    /// Idempotency token → admitted job id (re-submissions re-reply).
    tokens: HashMap<String, u64>,
    snapshots: SnapshotCache,
}

impl ServerState {
    fn new(snapshot_budget_bytes: u64) -> Self {
        ServerState {
            next_job: 1,
            submit_seq: 0,
            jobs: HashMap::new(),
            queue: Vec::new(),
            running: 0,
            tenant_inflight: HashMap::new(),
            tokens: HashMap::new(),
            snapshots: SnapshotCache::new(snapshot_budget_bytes),
        }
    }

    /// Pops the next job to run: highest priority first, submission order
    /// within a priority (priority-aware FIFO).
    fn pop_next(&mut self) -> Option<u64> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, id)| {
                let j = &self.jobs[*id];
                (std::cmp::Reverse(j.priority), j.submit_seq)
            })
            .map(|(pos, _)| pos)?;
        Some(self.queue.swap_remove(best))
    }
}

/// One connected client: a locked writer so job threads and the client's
/// own request handler can interleave whole frames safely.
struct ClientConn {
    writer: Mutex<TcpStream>,
    seq: AtomicU32,
}

impl ClientConn {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        // ordering: Relaxed — sequence numbers only need fetch_add
        // uniqueness; the frame write is serialized by the writer lock.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut w = self.writer.lock();
        w.send(seq, frame)
    }
}

struct ServerInner {
    config: ServeConfig,
    stats: ServeStats,
    links: Vec<WorkerLink>,
    state: Mutex<ServerState>,
    sched_tx: Sender<()>,
    /// The write-ahead journal (when `journal_dir` is configured). Lock
    /// order: `state` before `journal`, never the other way around.
    journal: Option<Mutex<Journal>>,
}

impl ServerInner {
    /// Appends one record to the journal (fsynced) if journaling is on.
    /// Non-admission records are best-effort: a failed append is logged
    /// but cannot un-happen the in-memory transition it describes.
    fn journal_append(&self, rec: &Record) {
        if let Some(j) = &self.journal {
            if let Err(e) = j.lock().append(rec) {
                eprintln!("journal: append failed: {e}");
            }
        }
    }
}

/// The serve daemon. [`Server::bind`] wires the worker links and the
/// scheduler; [`Server::run`] accepts clients forever.
pub struct Server {
    inner: Arc<ServerInner>,
    listener: TcpListener,
}

impl Server {
    /// Binds the client listener and takes ownership of already-connected
    /// worker streams (one per worker, switched into mux mode by their
    /// first envelope).
    pub fn bind(
        listener: TcpListener,
        workers: Vec<(TcpStream, String)>,
        config: ServeConfig,
    ) -> io::Result<Server> {
        assert!(!workers.is_empty(), "need at least one worker");
        let mut links = Vec::with_capacity(workers.len());
        for (stream, name) in workers {
            links.push(WorkerLink::start(stream, name)?);
        }
        let mut state = ServerState::new(config.snapshot_budget_bytes);
        let stats = ServeStats::default();
        let journal = match &config.journal_dir {
            None => None,
            Some(dir) => {
                let (journal, replay) = Journal::open(dir)?;
                // ordering: Relaxed — startup, before any concurrency.
                stats
                    .journal_replayed
                    .store(replay.replayed, Ordering::Relaxed);
                restore_from_replay(&mut state, &replay);
                Some(Mutex::new(journal))
            }
        };
        let resumable = !state.queue.is_empty();
        let (sched_tx, sched_rx) = channel();
        let inner = Arc::new(ServerInner {
            state: Mutex::new(state),
            config,
            stats,
            links,
            sched_tx,
            journal,
        });
        let sched_inner = Arc::clone(&inner);
        thread::spawn(move || scheduler_loop(sched_inner, sched_rx));
        if resumable {
            let _ = inner.sched_tx.send(());
        }
        Ok(Server { inner, listener })
    }

    /// Test/introspection accessor: a tenant's current in-flight count.
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.inner
            .state
            .lock()
            .tenant_inflight
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Test/introspection accessor: total exactly-once quota releases.
    pub fn quota_releases(&self) -> u64 {
        // ordering: Relaxed — monotonic diagnostic counter.
        self.inner.stats.quota_releases.load(Ordering::Relaxed)
    }

    /// Test/introspection accessor: jobs resumed from journaled commits.
    pub fn resumed_jobs(&self) -> u64 {
        // ordering: Relaxed — monotonic diagnostic counter.
        self.inner.stats.resumed_jobs.load(Ordering::Relaxed)
    }

    /// The client listener's bound address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves clients until the listener fails. Each client
    /// connection gets its own handler thread.
    pub fn run(&self) -> io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            let inner = Arc::clone(&self.inner);
            thread::spawn(move || {
                let _ = serve_client(inner, stream);
            });
        }
    }
}

/// Rebuilds the job table from a replayed journal: terminal jobs keep
/// their results servable, incomplete jobs re-queue with their original
/// priority and FIFO position — each resuming from its last committed
/// word-set, so an interrupted run's final counts stay bit-identical to
/// an uninterrupted one.
fn restore_from_replay(state: &mut ServerState, replay: &Replay) {
    for (&id, rj) in &replay.jobs {
        state.next_job = state.next_job.max(id + 1);
        state.submit_seq = state.submit_seq.max(rj.submit_seq);
        let (app, mut err) = match blob::decode_app_spec(&rj.app) {
            Ok(app) => (app, String::new()),
            Err(e) => (
                // Placeholder app for an undecodable record; the job is
                // forced Failed below and never dispatched.
                AppSpec::Kclist { k: 3 },
                format!("journal: undecodable app spec: {e}"),
            ),
        };
        let mut rec = JobRecord {
            tenant: rj.tenant.clone(),
            priority: rj.priority,
            submit_seq: rj.submit_seq,
            app,
            snapshot: rj.snapshot.clone(),
            token: rj.token.clone(),
            state: JobState::Failed,
            cancel: Arc::new(AtomicBool::new(false)),
            outcome: None,
            error: String::new(),
            subscribers: Vec::new(),
            // Terminal jobs never release again; incomplete ones own one
            // freshly re-taken quota slot.
            quota_released: true,
            epoch_base: rj.starts << 32,
            events: Vec::new(),
            resume: None,
        };
        match (&rj.terminal, err.is_empty()) {
            (_, false) => rec.error = std::mem::take(&mut err),
            (Some(ReplayTerminal::Finished { count, agg, report }), true) => {
                rec.state = JobState::Done;
                rec.outcome = Some(JobOutcome {
                    count: *count,
                    agg: agg.clone(),
                    report: report.clone(),
                });
            }
            (Some(ReplayTerminal::Cancelled), true) => rec.state = JobState::Cancelled,
            (Some(ReplayTerminal::Failed(e)), true) => rec.error = e.clone(),
            (None, true) => {
                rec.state = JobState::Queued;
                rec.quota_released = false;
                rec.resume = rj.committed.as_ref().and_then(|(rounds, count, agg)| {
                    match Committed::decode(&rec.app, *count, agg) {
                        Ok(committed) => Some(ResumeState {
                            rounds_done: *rounds,
                            committed,
                        }),
                        Err(e) => {
                            // A commit record that no longer decodes is
                            // dropped: the job restarts from scratch,
                            // which is slower but still exact.
                            eprintln!("journal: job {id}: ignoring commit: {e}");
                            None
                        }
                    }
                });
                *state.tenant_inflight.entry(rj.tenant.clone()).or_insert(0) += 1;
                state.queue.push(id);
            }
        }
        if !rj.token.is_empty() {
            state.tokens.insert(rj.token.clone(), id);
        }
        state.jobs.insert(id, rec);
    }
}

/// Dispatch loop: starts queued jobs while capacity allows. Woken on every
/// admission and every job completion; exits when the server drops.
fn scheduler_loop(inner: Arc<ServerInner>, rx: Receiver<()>) {
    while rx.recv().is_ok() {
        loop {
            let job = {
                let mut st = inner.state.lock();
                if st.running >= inner.config.max_running {
                    break;
                }
                let Some(id) = st.pop_next() else { break };
                st.running += 1;
                #[expect(
                    clippy::expect_used,
                    reason = "admitted jobs keep their records; only a failed admission is removed"
                )]
                let rec = st.jobs.get_mut(&id).expect("queued job");
                rec.state = JobState::Running;
                id
            };
            let job_inner = Arc::clone(&inner);
            thread::spawn(move || run_one_job(job_inner, job));
        }
    }
}

/// An *unsequenced* event frame (`event_seq: 0` = point-in-time reply,
/// always delivered, never deduplicated): status replies and rejections.
fn event(job: u64, kind: EventKind, detail: impl Into<String>, value: u64) -> Frame {
    Frame::JobEvent {
        job,
        kind,
        detail: detail.into(),
        value,
        event_seq: 0,
    }
}

/// Appends a *sequenced* lifecycle event to `job`'s event log and sends
/// it to every subscriber. Runs entirely under the state lock on purpose:
/// a concurrent `Watch` subscribes and replays the log under the same
/// lock, so a reconnecting watcher can never see a gap or an out-of-order
/// sequence — the property its `after_seq` dedup filter relies on.
fn log_event_locked(
    st: &mut ServerState,
    job: u64,
    kind: EventKind,
    detail: impl Into<String>,
    value: u64,
) {
    let Some(rec) = st.jobs.get_mut(&job) else {
        return;
    };
    let event_seq = rec.epoch_base + rec.events.len() as u64 + 1;
    let frame = Frame::JobEvent {
        job,
        kind,
        detail: detail.into(),
        value,
        event_seq,
    };
    rec.events.push(frame.clone());
    for s in &rec.subscribers {
        let _ = s.send(&frame);
    }
}

/// Gives `job`'s tenant-quota slot back — exactly once per job, whatever
/// the cancel/dispatch interleaving (the `quota_released` latch is
/// flipped under the same lock that serializes state transitions).
fn release_quota(inner: &ServerInner, st: &mut ServerState, job: u64) {
    let Some(rec) = st.jobs.get_mut(&job) else {
        return;
    };
    if rec.quota_released {
        return;
    }
    rec.quota_released = true;
    let tenant = rec.tenant.clone();
    if let Some(n) = st.tenant_inflight.get_mut(&tenant) {
        *n = n.saturating_sub(1);
    }
    // ordering: Relaxed — monotonic diagnostic counter.
    inner.stats.quota_releases.fetch_add(1, Ordering::Relaxed);
}

/// Runs one admitted job end-to-end on the shared pool and publishes its
/// terminal event. Always releases the job's slot and quota — exactly
/// once. Terminal transitions are journaled (write-ahead) before clients
/// see them.
fn run_one_job(inner: Arc<ServerInner>, job: u64) {
    let (app, snapshot, cancel, resume) = {
        let mut st = inner.state.lock();
        #[expect(
            clippy::expect_used,
            reason = "admitted jobs keep their records; only a failed admission is removed"
        )]
        let rec = st.jobs.get_mut(&job).expect("dispatched job");
        (
            rec.app,
            rec.snapshot.clone(),
            Arc::clone(&rec.cancel),
            rec.resume.take(),
        )
    };
    inner.journal_append(&Record::JobStarted { job });
    log_event_locked(
        &mut inner.state.lock(),
        job,
        EventKind::Running,
        app.name(),
        0,
    );

    let outcome = execute_job(&inner, job, app, &snapshot, cancel, resume);

    // Write-ahead: the terminal record is durable before the in-memory
    // transition happens and before any client sees the terminal event.
    let terminal_rec = match &outcome {
        Ok(None) => Record::JobCancelled { job },
        Ok(Some(out)) => Record::JobFinished {
            job,
            count: out.count,
            agg: out.agg.clone(),
            report: out.report.clone(),
        },
        Err(e) => Record::JobFailed {
            job,
            error: e.to_string(),
        },
    };
    inner.journal_append(&terminal_rec);

    let mut st = inner.state.lock();
    st.running -= 1;
    #[expect(
        clippy::expect_used,
        reason = "admitted jobs keep their records; only a failed admission is removed"
    )]
    let rec = st.jobs.get_mut(&job).expect("running job");
    let (kind, detail, value) = match outcome {
        Ok(None) => {
            rec.state = JobState::Cancelled;
            (EventKind::Cancelled, String::new(), 0)
        }
        Ok(Some(out)) => {
            let count = out.count;
            rec.state = JobState::Done;
            rec.outcome = Some(out);
            (EventKind::Done, String::new(), count)
        }
        Err(e) => {
            rec.state = JobState::Failed;
            rec.error = e.to_string();
            (EventKind::Failed, rec.error.clone(), 0)
        }
    };
    release_quota(&inner, &mut st, job);
    log_event_locked(&mut st, job, kind, detail, value);
    drop(st);
    let _ = inner.sched_tx.send(());
}

/// The job body: resolve the snapshot, open per-job virtual sessions on
/// every live worker, run the standard cluster driver over them, and
/// package the result. `Ok(None)` means the job was cancelled.
fn execute_job(
    inner: &Arc<ServerInner>,
    job: u64,
    app: AppSpec,
    snapshot: &str,
    cancel: Arc<AtomicBool>,
    resume: Option<ResumeState>,
) -> io::Result<Option<JobOutcome>> {
    let graph = {
        let mut st = inner.state.lock();
        let (graph, evictions) = st.snapshots.get_or_load(snapshot)?;
        if evictions > 0 {
            // ordering: Relaxed — monotonic diagnostic counter.
            inner
                .stats
                .snapshot_evictions
                .fetch_add(evictions, Ordering::Relaxed);
        }
        graph
    };

    let mut links = Vec::new();
    let mut names = Vec::new();
    let mut opened: Vec<&WorkerLink> = Vec::new();
    for link in &inner.links {
        if let Some(pair) = link.open_virtual(job) {
            links.push(pair);
            names.push(link.name.clone());
            opened.push(link);
        }
    }
    if links.is_empty() {
        return Err(invalid("no live workers"));
    }

    let mut config = DriverConfig::new_shared(app, graph);
    config.heartbeat_timeout = inner.config.heartbeat_timeout;
    config.cancel = Some(cancel);
    if resume.is_some() {
        // ordering: Relaxed — monotonic diagnostic counter.
        inner.stats.resumed_jobs.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "journal: resuming job {job} from round {}",
            resume.as_ref().map(|r| r.rounds_done).unwrap_or(0)
        );
    }
    config.resume = resume;
    if inner.journal.is_some() {
        // Journal every flush-is-commit boundary so a restart resumes
        // from the last fully merged round instead of from scratch.
        let commit_inner = Arc::clone(inner);
        config.on_round_commit = Some(Arc::new(move |rounds_done, count, agg: &[u8]| {
            commit_inner.journal_append(&Record::WordSetCommitted {
                job,
                rounds_done,
                count,
                agg: agg.to_vec(),
            });
            // Greppable marker for the restart chaos harness: seeing this
            // line means a SIGKILL now provably tests resume-from-commit.
            eprintln!("journal: committed job {job} round {rounds_done}");
        }));
    }
    // Stream coarse progress (decile steps) to subscribers.
    let progress_inner = Arc::clone(inner);
    let last_decile = Arc::new(AtomicU64::new(0));
    config.progress = Some(Arc::new(move |round, done, total| {
        let decile = (done * 10).checked_div(total).unwrap_or(10);
        // ordering: Relaxed — a lost race only skips one coarse progress
        // event; the counter is monotonic within the driver thread.
        if decile > last_decile.swap(decile, Ordering::Relaxed) {
            let detail = format!("round {round}");
            let mut st = progress_inner.state.lock();
            log_event_locked(&mut st, job, EventKind::Progress, detail, done);
        }
    }));

    let result = run_cluster_links(links, names, config);
    for link in opened {
        link.close_virtual(job);
    }
    let result = result?;
    if result.cancelled {
        return Ok(None);
    }

    let agg = app::encode_result(&app, &result.motifs, &result.frequent);
    let mut report = result.report;
    // Stamp the daemon's serve-path counters into the job's federated
    // report so `--metrics-out` artifacts carry them.
    // ordering: Relaxed — monotonic diagnostic counters.
    report.faults.jobs_admitted = inner.stats.jobs_admitted.load(Ordering::Relaxed);
    report.faults.jobs_rejected = inner.stats.jobs_rejected.load(Ordering::Relaxed);
    report.faults.snapshot_evictions = inner.stats.snapshot_evictions.load(Ordering::Relaxed);
    report.faults.journal_replayed = inner.stats.journal_replayed.load(Ordering::Relaxed);
    report.faults.resumed_jobs = inner.stats.resumed_jobs.load(Ordering::Relaxed);
    Ok(Some(JobOutcome {
        count: result.count,
        agg,
        report: blob::encode_report(&report),
    }))
}

/// Serves one client connection: handshake, then submit/status/cancel/
/// result requests until EOF. The connection doubles as the event stream
/// for every job it submitted.
fn serve_client(inner: Arc<ServerInner>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone()?;
    let conn = Arc::new(ClientConn {
        writer: Mutex::new(stream),
        seq: AtomicU32::new(0),
    });
    expect_hello(read_frame(&mut reader), Role::Client)?;
    conn.send(&Frame::hello(Role::Driver, 0))?;

    loop {
        let (_, frame) = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(_) => return Ok(()), // client hung up
        };
        match frame {
            Frame::Submit {
                tenant,
                priority,
                snapshot,
                app,
                token,
            } => handle_submit(&inner, &conn, tenant, priority, snapshot, &app, token)?,
            Frame::Watch { job, after_seq } => handle_watch(&inner, &conn, job, after_seq)?,
            Frame::Status { job } => {
                let reply = status_event(&inner.state.lock(), job);
                conn.send(&reply)?;
            }
            Frame::Cancel { job } => {
                let reply = handle_cancel(&inner, job);
                conn.send(&reply)?;
            }
            Frame::Result { job, .. } => {
                let reply = {
                    let st = inner.state.lock();
                    match st.jobs.get(&job).and_then(|r| r.outcome.as_ref()) {
                        Some(out) => Frame::Result {
                            job,
                            count: out.count,
                            agg: out.agg.clone(),
                            report: out.report.clone(),
                        },
                        None => status_event(&st, job),
                    }
                };
                conn.send(&reply)?;
            }
            // Anything else is not client → daemon traffic.
            _ => {}
        }
    }
}

/// Admission control: idempotency-token dedup, quota and capacity
/// checks, write-ahead journaling, queue insert, events.
///
/// Write-ahead ordering: the `JobAdmitted` record is fsynced *before*
/// the job becomes schedulable and before the client sees `Accepted` —
/// so an acknowledged job survives any crash, and a crash before the
/// fsync only loses a job the client never saw admitted (its token
/// retry re-admits it without double-running).
fn handle_submit(
    inner: &Arc<ServerInner>,
    conn: &Arc<ClientConn>,
    tenant: String,
    priority: u8,
    snapshot: String,
    app_blob: &[u8],
    token: String,
) -> io::Result<()> {
    // A spec no worker could run (undecodable, or of a size that would
    // panic a worker's core thread) is refused before it costs anything.
    let spec = blob::decode_app_spec(app_blob)
        .map_err(|e| format!("bad app spec: {e}"))
        .and_then(|app| app.size_blocker().map_or(Ok(app), Err));
    let app = match spec {
        Ok(app) => app,
        Err(why) => {
            // ordering: Relaxed — monotonic diagnostic counter.
            inner.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return conn.send(&event(0, EventKind::Rejected, why, 0));
        }
    };
    // Phase 1 (state lock): dedup + admission checks; reserve the id and
    // the quota slot but do NOT make the job schedulable yet.
    let verdict = {
        let mut st = inner.state.lock();
        if !token.is_empty() {
            if let Some(&id) = st.tokens.get(&token) {
                // Retry of an already-admitted submission: re-reply with
                // the original id and attach this connection — never
                // double-admit.
                #[expect(
                    clippy::expect_used,
                    reason = "a token names an admitted job, whose record is never removed"
                )]
                let rec = st.jobs.get_mut(&id).expect("token-indexed job");
                if !rec.subscribers.iter().any(|s| Arc::ptr_eq(s, conn)) {
                    rec.subscribers.push(Arc::clone(conn));
                }
                drop(st);
                return conn.send(&event(id, EventKind::Accepted, "duplicate token", id));
            }
        }
        if st.queue.len() >= inner.config.max_queue {
            Err("queue full".to_string())
        } else if st
            .tenant_inflight
            .get(&tenant)
            .is_some_and(|&n| n >= inner.config.max_per_tenant)
        {
            Err(format!("tenant {tenant} over quota"))
        } else {
            let id = st.next_job;
            st.next_job += 1;
            st.submit_seq += 1;
            let submit_seq = st.submit_seq;
            *st.tenant_inflight.entry(tenant.clone()).or_insert(0) += 1;
            if !token.is_empty() {
                st.tokens.insert(token.clone(), id);
            }
            st.jobs.insert(
                id,
                JobRecord {
                    tenant: tenant.clone(),
                    priority,
                    submit_seq,
                    app,
                    snapshot: snapshot.clone(),
                    token: token.clone(),
                    state: JobState::Queued,
                    cancel: Arc::new(AtomicBool::new(false)),
                    outcome: None,
                    error: String::new(),
                    subscribers: vec![Arc::clone(conn)],
                    quota_released: false,
                    epoch_base: 0,
                    events: Vec::new(),
                    resume: None,
                },
            );
            Ok((id, submit_seq))
        }
    };
    match verdict {
        Ok((id, submit_seq)) => {
            // Phase 2 (no state lock): make the admission durable.
            let durable = match &inner.journal {
                None => Ok(()),
                Some(j) => j.lock().append(&Record::JobAdmitted {
                    job: id,
                    token,
                    tenant,
                    priority,
                    submit_seq,
                    snapshot,
                    app: app_blob.to_vec(),
                }),
            };
            // Phase 3 (state lock): publish or roll back.
            let mut st = inner.state.lock();
            match durable {
                Ok(()) => {
                    st.queue.push(id);
                    let qpos = st.queue.len() as u64;
                    // ordering: Relaxed — monotonic diagnostic counter.
                    inner.stats.jobs_admitted.fetch_add(1, Ordering::Relaxed);
                    log_event_locked(&mut st, id, EventKind::Accepted, "", id);
                    log_event_locked(&mut st, id, EventKind::Queued, "", qpos);
                    drop(st);
                    let _ = inner.sched_tx.send(());
                    Ok(())
                }
                Err(e) => {
                    release_quota(inner, &mut st, id);
                    if let Some(rec) = st.jobs.remove(&id) {
                        st.tokens.remove(&rec.token);
                    }
                    drop(st);
                    // ordering: Relaxed — monotonic diagnostic counter.
                    inner.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                    conn.send(&event(0, EventKind::Rejected, format!("journal: {e}"), 0))
                }
            }
        }
        Err(why) => {
            // ordering: Relaxed — monotonic diagnostic counter.
            inner.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            conn.send(&event(0, EventKind::Rejected, why, 0))
        }
    }
}

/// `Watch { job, after_seq }`: subscribe this connection to `job`'s event
/// stream and replay the sequenced events it missed. Subscribe + replay
/// happen under the state lock, atomically against [`log_event_locked`]
/// appends — the watcher sees every event exactly once, in order, even
/// when it races a live emission.
fn handle_watch(
    inner: &Arc<ServerInner>,
    conn: &Arc<ClientConn>,
    job: u64,
    after_seq: u64,
) -> io::Result<()> {
    let mut st = inner.state.lock();
    let Some(rec) = st.jobs.get_mut(&job) else {
        drop(st);
        return conn.send(&event(job, EventKind::Failed, "unknown job", 0));
    };
    if !rec.subscribers.iter().any(|s| Arc::ptr_eq(s, conn)) {
        rec.subscribers.push(Arc::clone(conn));
    }
    let mut logged_terminal = false;
    for f in &rec.events {
        if let Frame::JobEvent {
            event_seq, kind, ..
        } = f
        {
            logged_terminal |= kind.is_terminal();
            if *event_seq > after_seq {
                let _ = conn.send(f);
            }
        }
    }
    // A job that reached its terminal state in a *previous* daemon epoch
    // (restored from the journal) has an empty event log this epoch:
    // synthesize its terminal event (unsequenced = always delivered) so
    // the watcher completes instead of hanging.
    if !logged_terminal
        && matches!(
            rec.state,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    {
        let terminal = status_event(&st, job);
        drop(st);
        return conn.send(&terminal);
    }
    Ok(())
}

/// A `JobEvent` describing `job`'s current lifecycle state.
fn status_event(st: &ServerState, job: u64) -> Frame {
    match st.jobs.get(&job) {
        None => event(job, EventKind::Failed, "unknown job", 0),
        Some(rec) => match rec.state {
            JobState::Queued => {
                let pos = st.queue.iter().position(|&j| j == job).unwrap_or(0) as u64;
                event(job, EventKind::Queued, "", pos + 1)
            }
            JobState::Running => event(job, EventKind::Running, rec.app.name(), 0),
            JobState::Done => {
                let count = rec.outcome.as_ref().map(|o| o.count).unwrap_or(0);
                event(job, EventKind::Done, "", count)
            }
            JobState::Cancelled => event(job, EventKind::Cancelled, "", 0),
            JobState::Failed => event(job, EventKind::Failed, rec.error.clone(), 0),
        },
    }
}

fn handle_cancel(inner: &ServerInner, job: u64) -> Frame {
    let mut st = inner.state.lock();
    let Some(rec) = st.jobs.get_mut(&job) else {
        return event(job, EventKind::Failed, "unknown job", 0);
    };
    match rec.state {
        JobState::Queued => {
            rec.state = JobState::Cancelled;
            st.queue.retain(|&j| j != job);
            release_quota(inner, &mut st, job);
            // Journaled while holding the state lock: the lock order is
            // state → journal everywhere, and durability must precede the
            // terminal event below.
            inner.journal_append(&Record::JobCancelled { job });
            log_event_locked(&mut st, job, EventKind::Cancelled, "", 0);
            event(job, EventKind::Cancelled, "", 0)
        }
        JobState::Running => {
            // Cooperative: the job's driver notices at its next event-loop
            // iteration, winds the virtual sessions down and publishes the
            // terminal Cancelled event itself.
            // ordering: SeqCst — cancel is a rare control-plane flag; the driver
            // polls it between event-loop iterations, no tight loop reads it.
            rec.cancel.store(true, Ordering::SeqCst);
            event(job, EventKind::Running, "cancelling", 0)
        }
        // Already terminal: report the state as-is.
        _ => status_event(&st, job),
    }
}

/// Gracefully shuts every worker connection down (physical
/// `Done{SHUTDOWN_ROUND}`), so workers exit their mux dispatchers.
pub fn shutdown_workers(server: &Server) {
    for link in &server.inner.links {
        let shutdown = Frame::Done {
            round: SHUTDOWN_ROUND,
        };
        // ordering: Relaxed — physical seq needs only uniqueness.
        let seq = link.physical_seq.fetch_add(1, Ordering::Relaxed);
        let mut w = link.physical.lock();
        let _ = w.send(seq, &shutdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_incomplete_jobs_requeue_in_fifo_order() {
        let admitted = |job, submit_seq| Record::JobAdmitted {
            job,
            token: String::new(),
            tenant: "t".into(),
            priority: 0,
            submit_seq,
            snapshot: "s".into(),
            app: blob::encode_app_spec(&AppSpec::Kclist { k: 3 }),
        };
        // A commit that decodes is resumed from; one that no longer
        // decodes (a KClist blob must be empty) is dropped, and its job
        // restarts from round 0.
        let committed = |job, agg| Record::WordSetCommitted {
            job,
            rounds_done: 1,
            count: 5,
            agg,
        };
        let recs = vec![
            admitted(7, 2),
            admitted(4, 1),
            admitted(9, 3),
            Record::JobCancelled { job: 4 },
            committed(7, vec![]),
            committed(9, vec![1]),
        ];
        let mut state = ServerState::new(0);
        restore_from_replay(&mut state, &Replay::fold(recs, 0));
        assert_eq!(state.jobs[&4].state, JobState::Cancelled);
        let order = [state.pop_next(), state.pop_next(), state.pop_next()];
        assert_eq!(order, [Some(7), Some(9), None]);
        let resume = state.jobs[&7].resume.as_ref().expect("job 7 resumes");
        assert_eq!((resume.rounds_done, resume.committed.count), (1, 5));
        assert!(state.jobs[&9].resume.is_none());
        assert_eq!((state.tenant_inflight["t"], state.next_job), (2, 10));
    }
}
