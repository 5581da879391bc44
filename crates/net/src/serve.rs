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
//!   snapshot alive through their own `Arc`s. Each load takes an id that
//!   is never reused; a worker is sent a snapshot's bytes once, keeps it
//!   under that id and forgets it once the cache has evicted it and no
//!   running job names it.
//! * **Worker links** — one physical connection per worker, owned by a
//!   router thread that demultiplexes `Mux` envelopes to per-job channel
//!   sources. A dead worker (EOF, SIGKILL) drops every registered route,
//!   so each affected job's driver sees that worker die *on its own
//!   session* and re-dispatches the corpse's obligations per affected
//!   job — survivors and unrelated jobs never notice.

use crate::app::{self, Committed};
use crate::blob::{self, AppSpec};
use crate::driver::{run_cluster_links, DriverConfig, GraphLedger, ResumeState};
use crate::frame::{
    expect_hello, read_frame, ChannelSource, EventKind, Frame, FrameSink, MuxSink, Role,
    SHUTDOWN_ROUND,
};
use crate::invalid;
use crate::journal::{Journal, Record, Replay, Terminal};
use crate::linkfault::DedupWindow;
use fractal_graph::{gen, io::load_adjacency_list, Graph};
use fractal_runtime::sync::{AtomicBool, AtomicU32, AtomicU64, Mutex, Ordering};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
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
    id: u64,
    graph: Arc<Graph>,
    bytes: u64,
    last_used: u64,
}

/// A running job's hold on a snapshot, from [`SnapshotCache::acquire`].
struct Acquired {
    id: u64,
    graph: Arc<Graph>,
    /// Entries evicted to make room.
    evictions: u64,
    /// Evicted ids no running job names: the workers forget them now.
    forget: Vec<u64>,
}

struct SnapshotCache {
    budget: u64,
    entries: HashMap<String, SnapshotEntry>,
    used: u64,
    tick: u64,
    /// The id the next load takes. Ids are never reused, so a snapshot
    /// reloaded after eviction is a new graph to every worker.
    next_id: u64,
    /// Running jobs per snapshot id, cached or evicted.
    jobs: HashMap<u64, usize>,
}

impl SnapshotCache {
    fn new(budget: u64) -> Self {
        SnapshotCache {
            budget,
            entries: HashMap::new(),
            used: 0,
            tick: 0,
            next_id: 1,
            jobs: HashMap::new(),
        }
    }

    /// Returns the snapshot for `spec` to a starting job, loading it on
    /// first use and evicting least-recently-used entries past the byte
    /// budget. The job holds the id until [`Self::release`].
    fn acquire(&mut self, spec: &str) -> io::Result<Acquired> {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(spec) {
            e.last_used = self.tick;
            *self.jobs.entry(e.id).or_default() += 1;
            return Ok(Acquired {
                id: e.id,
                graph: Arc::clone(&e.graph),
                evictions: 0,
                forget: Vec::new(),
            });
        }
        let graph = Arc::new(load_snapshot(spec)?);
        let bytes = graph_bytes(&graph);
        let (mut evictions, mut forget) = (0, Vec::new());
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
            if !self.jobs.contains_key(&e.id) {
                forget.push(e.id);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.used += bytes;
        self.jobs.insert(id, 1);
        self.entries.insert(
            spec.to_string(),
            SnapshotEntry {
                id,
                graph: Arc::clone(&graph),
                bytes,
                last_used: self.tick,
            },
        );
        Ok(Acquired {
            id,
            graph,
            evictions,
            forget,
        })
    }

    /// Ends a job's hold on snapshot `id`. True when the workers should
    /// forget it: the cache has evicted it and no running job names it.
    fn release(&mut self, id: u64) -> bool {
        let Some(n) = self.jobs.get_mut(&id) else {
            return false;
        };
        *n -= 1;
        if *n > 0 {
            return false;
        }
        self.jobs.remove(&id);
        !self.entries.values().any(|e| e.id == id)
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
    /// The snapshot ids this worker holds.
    graphs: GraphLedger,
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
            graphs: GraphLedger::default(),
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

    /// Sends a physical frame, outside any job's envelope.
    fn send_physical(&self, frame: &Frame) {
        // ordering: Relaxed — physical seq needs only uniqueness.
        let seq = self.physical_seq.fetch_add(1, Ordering::Relaxed);
        let _ = self.physical.lock().send(seq, frame);
    }

    /// Tells the worker to drop snapshot `id`, if it holds it. The ledger
    /// stays locked across the send (see [`GraphLedger`]).
    fn forget(&self, id: u64) {
        let mut held = self.graphs.lock();
        if held.remove(&id) {
            self.send_physical(&Frame::Forget { graph: id });
        }
    }

    /// Registers a job's route and returns its virtual link. `None` when
    /// the worker is already dead.
    fn open_virtual(&self, job: u64) -> Option<(ChannelSource, MuxSink<TcpStream>, GraphLedger)> {
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
        Some((ChannelSource(rx), sink, Arc::clone(&self.graphs)))
    }

    fn close_virtual(&self, job: u64) {
        self.routes.lock().remove(&job);
    }
}

// ---- job lifecycle ----

/// Where a job is in its lifecycle. A job holds one slot of its tenant's
/// quota exactly while it is `Queued` or `Running`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Ended(Terminal),
}

impl Phase {
    /// The kind of event that reports this phase.
    fn kind(&self) -> EventKind {
        match self {
            Phase::Queued => EventKind::Queued,
            Phase::Running => EventKind::Running,
            Phase::Ended(Terminal::Finished { .. }) => EventKind::Done,
            Phase::Ended(Terminal::Cancelled) => EventKind::Cancelled,
            Phase::Ended(Terminal::Failed(_)) => EventKind::Failed,
        }
    }
}

/// What can happen to a job.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Input {
    /// Passed the admission checks; carries the `JobAdmitted` record.
    Admit(Record),
    /// The admission could not be journaled; carries why.
    Rollback(String),
    Dispatch,
    Cancel,
    /// The job's driver returned.
    Finish(Terminal),
    /// Found in the journal at startup: ended, or incomplete (`None`).
    Restore(Option<Terminal>),
}

/// The lifecycle table's answer to one input.
#[derive(Debug, PartialEq, Eq)]
struct Step {
    next: Phase,
    /// Journaled (fsynced) before any client hears of `next`.
    record: Option<Record>,
    /// The sequenced event, reporting `next`, logged to subscribers.
    event: Option<EventKind>,
    /// `1` takes a slot of the tenant's quota, `-1` gives it back.
    quota: i8,
}

/// The job lifecycle as one transition table (DESIGN.md §12.3): `job`'s
/// phase (`None` before it exists) and an input decide the next phase,
/// the record journaled, the event logged and the quota moved. `None`
/// refuses the input, and nothing changes.
fn transition(job: u64, from: Option<&Phase>, input: Input) -> Option<Step> {
    use Phase::{Ended, Queued, Running};
    let (record, next) = match (from, input) {
        (None, Input::Admit(admitted)) => (Some(admitted), Queued),
        (None, Input::Restore(None)) => (None, Queued),
        (None, Input::Restore(Some(t))) => (None, Ended(t)),
        (Some(Queued), Input::Rollback(why)) => (None, Ended(Terminal::Failed(why))),
        (Some(Queued), Input::Dispatch) => (Some(Record::JobStarted { job }), Running),
        (Some(Queued), Input::Cancel) => (
            Some(Record::JobCancelled { job }),
            Ended(Terminal::Cancelled),
        ),
        // Cooperative: the job's driver notices the cancel flag, winds its
        // virtual sessions down and finishes the job as `Cancelled`.
        (Some(Running), Input::Cancel) => (None, Running),
        (Some(Running), Input::Finish(t)) => (Some(t.record(job)), Ended(t)),
        _ => return None,
    };
    let held = |p: Option<&Phase>| i8::from(matches!(p, Some(Queued | Running)));
    Some(Step {
        quota: held(Some(&next)) - held(from),
        // Clients hear of exactly the transitions that are journaled.
        event: record.as_ref().map(|_| next.kind()),
        next,
        record,
    })
}

struct JobRecord {
    tenant: String,
    priority: u8,
    submit_seq: u64,
    app: AppSpec,
    snapshot: String,
    /// Client-generated idempotency token ("" = none).
    token: String,
    phase: Phase,
    cancel: Arc<AtomicBool>,
    subscribers: Vec<Arc<ClientConn>>,
    /// Base of this job's `event_seq` numbers: `(journaled starts) << 32`.
    /// Each daemon restart re-emits under a higher epoch, so sequence
    /// numbers never move backwards and a reconnecting watcher's
    /// `after_seq` filter stays sound across restarts.
    epoch_base: u64,
    /// This epoch's sequenced event log, replayed to `Watch` subscribers.
    events: Vec<Frame>,
    /// Journaled committed word-set to resume from (restart path).
    resume: Option<ResumeState>,
    /// `Some` while admission appends the job's `JobAdmitted` record,
    /// holding whether a cancel came meanwhile. Replay drops a
    /// `JobCancelled` that precedes its job's admission as an orphan, so
    /// such a cancel is journaled once the admission is published.
    admitting: Option<bool>,
}

impl JobRecord {
    /// This job's key in [`ServerState::queue`]: highest priority first,
    /// submission order within a priority.
    fn queue_key(&self) -> (Reverse<u8>, u64) {
        (Reverse(self.priority), self.submit_seq)
    }
}

struct ServerState {
    next_job: u64,
    submit_seq: u64,
    jobs: HashMap<u64, JobRecord>,
    /// Dispatchable queued jobs in dispatch order: the first entry runs
    /// next, and a job's rank here is the queue position it reports.
    queue: BTreeMap<(Reverse<u8>, u64), u64>,
    running: usize,
    tenant_inflight: HashMap<String, usize>,
    /// Quota slots given back: one per job that ends while holding one.
    quota_releases: u64,
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
            queue: BTreeMap::new(),
            running: 0,
            tenant_inflight: HashMap::new(),
            quota_releases: 0,
            tokens: HashMap::new(),
            snapshots: SnapshotCache::new(snapshot_budget_bytes),
        }
    }

    /// Adds `job` to the table as `input` (an admission or a restore)
    /// says; `make` builds its record in the phase the table gives.
    fn add(
        &mut self,
        job: u64,
        input: Input,
        make: impl FnOnce(Phase) -> JobRecord,
    ) -> Option<Step> {
        let step = transition(job, None, input)?;
        let rec = make(step.next.clone());
        self.charge(&rec.tenant, step.quota);
        if !rec.token.is_empty() {
            self.tokens.insert(rec.token.clone(), job);
        }
        self.jobs.insert(job, rec);
        Some(step)
    }

    /// Feeds `input` to `job`'s lifecycle and applies the table's answer.
    /// `None`: the job is unknown or the table refuses the input.
    fn advance(&mut self, job: u64, input: Input) -> Option<Step> {
        let step = transition(job, Some(&self.jobs.get(&job)?.phase), input)?;
        self.apply(job, &step);
        Some(step)
    }

    /// Moves `job` to `step.next`. A job that stops being queued leaves
    /// the queue, and the running count and the tenant's quota follow the
    /// phase; the caller journals `step.record` and logs `step.event`
    /// where write-ahead ordering puts them.
    fn apply(&mut self, job: u64, step: &Step) {
        let Some(rec) = self.jobs.get_mut(&job) else {
            return;
        };
        let from = std::mem::replace(&mut rec.phase, step.next.clone());
        if from == Phase::Queued {
            self.queue.remove(&rec.queue_key());
        }
        self.running = self.running + usize::from(step.next == Phase::Running)
            - usize::from(from == Phase::Running);
        let tenant = rec.tenant.clone();
        self.charge(&tenant, step.quota);
    }

    /// Takes (`quota` 1) or gives back (`quota` -1) a slot of `tenant`'s
    /// quota.
    fn charge(&mut self, tenant: &str, quota: i8) {
        if quota != 0 {
            let inflight = self.tenant_inflight.entry(tenant.to_string()).or_insert(0);
            *inflight = inflight.saturating_add_signed(isize::from(quota));
            self.quota_releases += u64::from(quota < 0);
        }
    }

    /// Makes `job` dispatchable if it is still queued.
    fn enqueue(&mut self, job: u64) {
        if let Some(rec) = self.jobs.get(&job).filter(|r| r.phase == Phase::Queued) {
            self.queue.insert(rec.queue_key(), job);
        }
    }

    /// The (unsequenced) event reporting `job`'s phase: a queued job's
    /// value is its rank in dispatch order, a running job's detail its
    /// app, an ended job's detail or value its terminal's.
    fn status_event(&self, job: u64) -> Frame {
        let Some(rec) = self.jobs.get(&job) else {
            return event(job, EventKind::Failed, "unknown job", 0);
        };
        let (detail, value) = match &rec.phase {
            Phase::Queued => (
                String::new(),
                self.queue.range(..rec.queue_key()).count() as u64 + 1,
            ),
            Phase::Running => (rec.app.name().to_string(), 0),
            Phase::Ended(Terminal::Finished { count, .. }) => (String::new(), *count),
            Phase::Ended(Terminal::Cancelled) => (String::new(), 0),
            Phase::Ended(Terminal::Failed(error)) => (error.clone(), 0),
        };
        event(job, rec.phase.kind(), detail, value)
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
    /// Called with a job's id between admission's reserve and its
    /// `JobAdmitted` append: `None` everywhere but in the test that holds
    /// an admission there.
    hold_admission: Option<AdmissionHold>,
}

/// See [`ServerInner::hold_admission`].
type AdmissionHold = Box<dyn Fn(u64) + Send + Sync>;

impl ServerInner {
    /// Tells every worker that holds them to forget snapshots `ids`.
    fn forget(&self, ids: &[u64]) {
        for &id in ids {
            for link in &self.links {
                link.forget(id);
            }
        }
    }

    /// Appends one record to the journal (fsynced) if journaling is on.
    /// Non-admission records are best-effort: a failed append is logged
    /// but cannot un-happen the in-memory transition it describes.
    fn journal_append(&self, rec: Option<&Record>) {
        if let (Some(j), Some(rec)) = (&self.journal, rec) {
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
        Self::bind_with(listener, workers, config, None)
    }

    /// [`bind`](Self::bind) plus the test seam `hold_admission`.
    fn bind_with(
        listener: TcpListener,
        workers: Vec<(TcpStream, String)>,
        config: ServeConfig,
        hold_admission: Option<AdmissionHold>,
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
            hold_admission,
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

    /// Test/introspection accessor: total quota releases.
    pub fn quota_releases(&self) -> u64 {
        self.inner.state.lock().quota_releases
    }

    /// Test/introspection accessor: the snapshot ids each worker holds,
    /// sorted, in worker order.
    pub fn graphs_held(&self) -> Vec<Vec<u64>> {
        let held = self.inner.links.iter().map(|l| {
            let mut ids: Vec<u64> = l.graphs.lock().iter().copied().collect();
            ids.sort_unstable();
            ids
        });
        held.collect()
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
        let (app, terminal) = match blob::decode_app_spec(&rj.app) {
            Ok(app) => (app, rj.terminal.clone()),
            // An undecodable record keeps a placeholder app and ends
            // Failed, so it is never dispatched.
            Err(e) => (
                AppSpec::Kclist { k: 3 },
                Some(Terminal::Failed(format!(
                    "journal: undecodable app spec: {e}"
                ))),
            ),
        };
        let resume = match (&terminal, &rj.committed) {
            (None, Some((rounds, count, agg))) => match Committed::decode(&app, *count, agg) {
                Ok(committed) => Some(ResumeState {
                    rounds_done: *rounds,
                    committed,
                }),
                Err(e) => {
                    // A commit record that no longer decodes is dropped:
                    // the job restarts from scratch, which is slower but
                    // still exact.
                    eprintln!("journal: job {id}: ignoring commit: {e}");
                    None
                }
            },
            _ => None,
        };
        state.add(id, Input::Restore(terminal), |phase| JobRecord {
            tenant: rj.tenant.clone(),
            priority: rj.priority,
            submit_seq: rj.submit_seq,
            app,
            snapshot: rj.snapshot.clone(),
            token: rj.token.clone(),
            phase,
            cancel: Arc::new(AtomicBool::new(false)),
            subscribers: Vec::new(),
            epoch_base: rj.starts << 32,
            events: Vec::new(),
            resume,
            admitting: None,
        });
        state.enqueue(id);
    }
}

/// Dispatch loop: starts queued jobs while capacity allows. Woken on every
/// admission and every job completion; exits when the server drops.
fn scheduler_loop(inner: Arc<ServerInner>, rx: Receiver<()>) {
    while rx.recv().is_ok() {
        loop {
            let (job, started) = {
                let mut st = inner.state.lock();
                if st.running >= inner.config.max_running {
                    break;
                }
                let Some((_, job)) = st.queue.pop_first() else {
                    break;
                };
                let Some(started) = st.advance(job, Input::Dispatch) else {
                    continue;
                };
                (job, started)
            };
            let job_inner = Arc::clone(&inner);
            thread::spawn(move || run_one_job(job_inner, job, started));
        }
    }
}

/// An *unsequenced* event frame (`event_seq: 0` = point-in-time reply,
/// always delivered, never deduplicated): status replies and rejections,
/// or an event on its way into a job's log.
fn event(job: u64, kind: EventKind, detail: impl Into<String>, value: u64) -> Frame {
    Frame::JobEvent {
        job,
        kind,
        detail: detail.into(),
        value,
        event_seq: 0,
    }
}

/// Appends `frame`, a job event, to `job`'s event log under the next
/// sequence number and sends it to every subscriber. Runs entirely under
/// the state lock on purpose: a concurrent `Watch` subscribes and replays
/// the log under the same lock, so a reconnecting watcher can never see a
/// gap or an out-of-order sequence — the property its `after_seq` dedup
/// filter relies on.
fn log_event_locked(st: &mut ServerState, job: u64, mut frame: Frame) {
    let Some(rec) = st.jobs.get_mut(&job) else {
        return;
    };
    if let Frame::JobEvent { event_seq, .. } = &mut frame {
        *event_seq = rec.epoch_base + rec.events.len() as u64 + 1;
    }
    for s in &rec.subscribers {
        let _ = s.send(&frame);
    }
    rec.events.push(frame);
}

/// Logs the event `step` announces, which reports the phase it entered.
fn announce(st: &mut ServerState, job: u64, step: &Step) {
    if step.event.is_some() {
        let frame = st.status_event(job);
        log_event_locked(st, job, frame);
    }
}

/// Runs one dispatched job end-to-end on the shared pool; `started` is
/// the table's answer to its dispatch. The job's end goes through the
/// table too, which frees its running slot and quota. Each record is
/// journaled (write-ahead) before clients see the event it backs.
fn run_one_job(inner: Arc<ServerInner>, job: u64, started: Step) {
    let (app, snapshot, cancel, resume) = {
        let mut st = inner.state.lock();
        #[expect(
            clippy::expect_used,
            reason = "job records are never removed from the table"
        )]
        let rec = st.jobs.get_mut(&job).expect("dispatched job");
        (
            rec.app,
            rec.snapshot.clone(),
            Arc::clone(&rec.cancel),
            rec.resume.take(),
        )
    };
    inner.journal_append(started.record.as_ref());
    announce(&mut inner.state.lock(), job, &started);

    let terminal = execute_job(&inner, job, app, &snapshot, cancel, resume)
        .unwrap_or_else(|e| Terminal::Failed(e.to_string()));
    // Only this thread ends a running job, so the table is read for
    // `Running` without the state lock, and the terminal record is
    // durable before the phase changes and any client sees the event.
    #[expect(clippy::expect_used, reason = "the table ends every running job")]
    let finished = transition(job, Some(&Phase::Running), Input::Finish(terminal))
        .expect("a running job finishes");
    inner.journal_append(finished.record.as_ref());

    let mut st = inner.state.lock();
    st.apply(job, &finished);
    announce(&mut st, job, &finished);
    drop(st);
    let _ = inner.sched_tx.send(());
}

/// The job body: hold the snapshot while the job runs on it, and have
/// the workers forget whatever the cache evicted and no job names.
fn execute_job(
    inner: &Arc<ServerInner>,
    job: u64,
    app: AppSpec,
    snapshot: &str,
    cancel: Arc<AtomicBool>,
    resume: Option<ResumeState>,
) -> io::Result<Terminal> {
    let acquired = inner.state.lock().snapshots.acquire(snapshot)?;
    // ordering: Relaxed — monotonic diagnostic counter.
    inner
        .stats
        .snapshot_evictions
        .fetch_add(acquired.evictions, Ordering::Relaxed);
    inner.forget(&acquired.forget);
    let terminal = run_on_snapshot(inner, job, app, &acquired, cancel, resume);
    if inner.state.lock().snapshots.release(acquired.id) {
        inner.forget(&[acquired.id]);
    }
    terminal
}

/// Opens per-job virtual sessions on every live worker, runs the standard
/// cluster driver over them on the acquired snapshot, and packages the
/// result.
fn run_on_snapshot(
    inner: &Arc<ServerInner>,
    job: u64,
    app: AppSpec,
    snapshot: &Acquired,
    cancel: Arc<AtomicBool>,
    resume: Option<ResumeState>,
) -> io::Result<Terminal> {
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

    let mut config = DriverConfig::new_shared(app, Arc::clone(&snapshot.graph));
    config.graph_id = snapshot.id;
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
            commit_inner.journal_append(Some(&Record::WordSetCommitted {
                job,
                rounds_done,
                count,
                agg: agg.to_vec(),
            }));
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
            log_event_locked(&mut st, job, event(job, EventKind::Progress, detail, done));
        }
    }));

    let result = run_cluster_links(links, names, config);
    for link in opened {
        link.close_virtual(job);
    }
    let result = result?;
    if result.cancelled {
        return Ok(Terminal::Cancelled);
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
    Ok(Terminal::Finished {
        count: result.count,
        agg,
        report: blob::encode_report(&report),
    })
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
                let reply = inner.state.lock().status_event(job);
                conn.send(&reply)?;
            }
            Frame::Cancel { job } => {
                let reply = handle_cancel(&inner, job);
                conn.send(&reply)?;
            }
            Frame::Result { job, .. } => {
                let reply = {
                    let st = inner.state.lock();
                    match st.jobs.get(&job).map(|r| &r.phase) {
                        Some(Phase::Ended(Terminal::Finished { count, agg, report })) => {
                            Frame::Result {
                                job,
                                count: *count,
                                agg: agg.clone(),
                                report: report.clone(),
                            }
                        }
                        _ => st.status_event(job),
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
            let admitted = Record::JobAdmitted {
                job: id,
                token: token.clone(),
                tenant: tenant.clone(),
                priority,
                submit_seq,
                snapshot: snapshot.clone(),
                app: app_blob.to_vec(),
            };
            let make = |phase| JobRecord {
                tenant,
                priority,
                submit_seq,
                app,
                snapshot,
                token: token.clone(),
                phase,
                cancel: Arc::new(AtomicBool::new(false)),
                subscribers: vec![Arc::clone(conn)],
                epoch_base: 0,
                events: Vec::new(),
                resume: None,
                admitting: Some(false),
            };
            #[expect(clippy::expect_used, reason = "the table admits every new job")]
            let step = st.add(id, Input::Admit(admitted), make).expect("admission");
            Ok((id, step))
        }
    };
    match verdict {
        Ok((id, admitted)) => {
            if let Some(hold) = &inner.hold_admission {
                hold(id);
            }
            // Phase 2 (no state lock): make the admission durable.
            let durable = match (&inner.journal, &admitted.record) {
                (Some(j), Some(rec)) => j.lock().append(rec),
                _ => Ok(()),
            };
            // Phase 3 (state lock): publish or roll back.
            let mut st = inner.state.lock();
            let cancelled = st.jobs.get_mut(&id).and_then(|r| r.admitting.take()) == Some(true);
            match durable {
                Ok(()) => {
                    st.enqueue(id);
                    // ordering: Relaxed — monotonic diagnostic counter.
                    inner.stats.jobs_admitted.fetch_add(1, Ordering::Relaxed);
                    log_event_locked(&mut st, id, event(id, EventKind::Accepted, "", id));
                    announce(&mut st, id, &admitted);
                    if cancelled {
                        cancel(inner, &mut st, id);
                    }
                    drop(st);
                    let _ = inner.sched_tx.send(());
                    Ok(())
                }
                Err(e) => {
                    // The job ends unannounced and frees its token, so a
                    // retry is admitted afresh.
                    st.advance(id, Input::Rollback(format!("journal: {e}")));
                    st.tokens.remove(&token);
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
    if !logged_terminal && matches!(rec.phase, Phase::Ended(_)) {
        let terminal = st.status_event(job);
        drop(st);
        return conn.send(&terminal);
    }
    Ok(())
}

fn handle_cancel(inner: &ServerInner, job: u64) -> Frame {
    let mut st = inner.state.lock();
    match st.jobs.get_mut(&job).and_then(|r| r.admitting.as_mut()) {
        // Its admission is not journaled yet: the cancel waits for it.
        Some(cancelled) => {
            *cancelled = true;
            event(job, EventKind::Queued, "cancelling", 0)
        }
        None => cancel(inner, &mut st, job),
    }
}

/// Feeds a cancel to `job`'s lifecycle and returns the reply.
fn cancel(inner: &ServerInner, st: &mut ServerState, job: u64) -> Frame {
    match st.advance(job, Input::Cancel) {
        Some(step) if step.next == Phase::Running => {
            // ordering: SeqCst — cancel is a rare control-plane flag; the
            // driver polls it between event-loop iterations, no tight loop
            // reads it.
            st.jobs[&job].cancel.store(true, Ordering::SeqCst);
            event(job, EventKind::Running, "cancelling", 0)
        }
        Some(step) => {
            // Journaled while holding the state lock: the lock order is
            // state → journal everywhere, and durability must precede the
            // terminal event below.
            inner.journal_append(step.record.as_ref());
            announce(st, job, &step);
            st.status_event(job)
        }
        // Unknown or already ended: report the phase as it is.
        None => st.status_event(job),
    }
}

/// Gracefully shuts every worker connection down (physical
/// `Done{SHUTDOWN_ROUND}`), so workers exit their mux dispatchers.
pub fn shutdown_workers(server: &Server) {
    for link in &server.inner.links {
        link.send_physical(&Frame::Done {
            round: SHUTDOWN_ROUND,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (phase, input) pair through the lifecycle table: the allowed
    /// pairs move the phase, journal, log and charge the quota as listed,
    /// and every other pair is refused.
    #[test]
    fn lifecycle_table_decides_every_pair() {
        use EventKind as E;
        use Phase::{Ended, Queued, Running};
        use Terminal::{Cancelled, Failed};
        let done = Terminal::Finished {
            count: 5,
            agg: vec![1],
            report: vec![2],
        };
        let admitted = Record::JobAdmitted {
            job: 3,
            token: String::new(),
            tenant: "t".into(),
            priority: 0,
            submit_seq: 1,
            snapshot: "s".into(),
            app: Vec::new(),
        };
        let boom = || Failed("boom".into());
        let phases = [
            ("new", None),
            ("queued", Some(Queued)),
            ("running", Some(Running)),
            ("finished", Some(Ended(done.clone()))),
            ("cancelled", Some(Ended(Cancelled))),
            ("failed", Some(Ended(boom()))),
        ];
        let inputs = [
            ("admit", Input::Admit(admitted.clone())),
            ("rollback", Input::Rollback("full".into())),
            ("dispatch", Input::Dispatch),
            ("cancel", Input::Cancel),
            ("finish-done", Input::Finish(done.clone())),
            ("finish-cancelled", Input::Finish(Cancelled)),
            ("finish-failed", Input::Finish(boom())),
            ("restore", Input::Restore(None)),
            ("restore-ended", Input::Restore(Some(done.clone()))),
        ];
        let (started, cancelled) = (
            Record::JobStarted { job: 3 },
            Record::JobCancelled { job: 3 },
        );
        #[rustfmt::skip]
        let allowed = [
            ("new", "admit", Queued, Some(admitted), Some(E::Queued), 1),
            ("new", "restore", Queued, None, None, 1),
            ("new", "restore-ended", Ended(done.clone()), None, None, 0),
            ("queued", "rollback", Ended(Failed("full".into())), None, None, -1),
            ("queued", "dispatch", Running, Some(started), Some(E::Running), 0),
            ("queued", "cancel", Ended(Cancelled), Some(cancelled.clone()), Some(E::Cancelled), -1),
            ("running", "cancel", Running, None, None, 0),
            ("running", "finish-done", Ended(done.clone()), Some(done.record(3)), Some(E::Done), -1),
            ("running", "finish-cancelled", Ended(Cancelled), Some(cancelled), Some(E::Cancelled), -1),
            ("running", "finish-failed", Ended(boom()), Some(boom().record(3)), Some(E::Failed), -1),
        ];
        let mut refused = Vec::new();
        for (from_name, from) in &phases {
            for (input_name, input) in &inputs {
                let pair = format!("{from_name} + {input_name}");
                let want = allowed
                    .iter()
                    .find(|row| (row.0, row.1) == (*from_name, *input_name));
                let want = want.map(|(_, _, next, record, event, quota)| Step {
                    next: next.clone(),
                    record: record.clone(),
                    event: *event,
                    quota: *quota,
                });
                let got = transition(3, from.as_ref(), input.clone());
                assert_eq!(got, want, "{pair}");
                if got.is_none() {
                    refused.push(pair);
                }
            }
        }
        assert_eq!(refused.len(), phases.len() * inputs.len() - allowed.len());
        for pair in [
            "finished + cancel",
            "cancelled + cancel",
            "failed + cancel",
            "queued + finish-done",
            "running + dispatch",
            "new + cancel",
            "finished + restore",
        ] {
            assert!(refused.iter().any(|r| r == pair), "{pair} must be refused");
        }
    }

    /// A cancel that names a job between admission's reserve and its
    /// `JobAdmitted` fsync: the job must stay cancelled across a restart on
    /// the journal, and never run.
    #[test]
    fn cancel_inside_the_admission_gap_survives_a_restart() {
        use crate::client::Client;
        use crate::journal::{decode_record, JOURNAL_FILE};
        use crate::worker::ServeOutcome;
        let dir = std::env::temp_dir().join(format!("fractal-serve-gap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let worker = || {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let handle = thread::spawn(move || crate::worker::serve(&listener, 1));
            (
                handle,
                vec![(TcpStream::connect(addr).unwrap(), "w0".to_string())],
            )
        };
        let started = |job| {
            let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
            let (mut at, mut started) = (0, false);
            while let Some((rec, used)) = decode_record(&bytes[at..]) {
                started |= rec == Record::JobStarted { job };
                at += used;
            }
            started
        };

        // Admission stops after reserving the id until the test lets it go.
        let (reserved_tx, reserved) = channel();
        let (release, held) = channel::<()>();
        let held = Mutex::new(held);
        let hold: AdmissionHold = Box::new(move |job| {
            let _ = reserved_tx.send(job);
            let _ = held.lock().recv();
        });
        let (first_worker, workers) = worker();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Arc::new(Server::bind_with(listener, workers, config(), Some(hold)).unwrap());
        let addr = server.local_addr().unwrap().to_string();
        let accept = Arc::clone(&server);
        thread::spawn(move || accept.run());
        let submit_to = addr.clone();
        let submitter = thread::spawn(move || {
            let app = AppSpec::Kclist { k: 3 };
            Client::connect(&submit_to)?.submit("t", 0, "gen:mico:300:11", &app, "")
        });
        let job = reserved.recv().unwrap();
        let mut client = Client::connect(&addr).unwrap();
        client.cancel(job).unwrap();
        release.send(()).unwrap();
        assert_eq!(submitter.join().unwrap().unwrap(), job);
        assert_eq!(client.status(job).unwrap().0, EventKind::Cancelled);
        shutdown_workers(&server);
        assert!(matches!(
            first_worker.join().unwrap(),
            Ok(ServeOutcome::Shutdown)
        ));

        // A second daemon on the same journal.
        let (second_worker, workers) = worker();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let restarted = Server::bind(listener, workers, config()).unwrap();
        let phase = restarted.inner.state.lock().jobs[&job].phase.clone();
        assert_eq!(phase, Phase::Ended(Terminal::Cancelled));
        assert!(restarted.inner.state.lock().queue.is_empty());
        assert!(!started(job), "the cancelled job ran");
        shutdown_workers(&restarted);
        assert!(matches!(
            second_worker.join().unwrap(),
            Ok(ServeOutcome::Shutdown)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ids are never reused, and the workers forget an evicted snapshot
    /// only once no running job holds it.
    #[test]
    fn snapshot_ids_are_fresh_and_held_ones_are_forgotten_at_release() {
        let (one, two) = ("gen:mico:40:1", "gen:mico:40:2");
        let mut cache = SnapshotCache::new(1);
        let a = cache.acquire(one).unwrap();
        let b = cache.acquire(two).unwrap();
        assert_eq!((b.evictions, b.forget.as_slice()), (1, &[][..]));
        assert!(cache.release(a.id), "evicted and no longer held");
        assert!(!cache.release(b.id), "still cached");
        let again = cache.acquire(one).unwrap();
        assert_eq!((again.evictions, again.forget.as_slice()), (1, &[b.id][..]));
        assert!(again.id != a.id && again.id != b.id);
        let shared = cache.acquire(one).unwrap();
        assert_eq!((shared.id, shared.evictions), (again.id, 0));
        assert!(!cache.release(again.id) && !cache.release(shared.id));
        assert!(!cache.release(a.id), "a released id is not held");
    }

    #[test]
    fn replayed_incomplete_jobs_requeue_in_fifo_order() {
        let app_job = |job, submit_seq, app| Record::JobAdmitted {
            job,
            token: String::new(),
            tenant: "t".into(),
            priority: 0,
            submit_seq,
            snapshot: "s".into(),
            app,
        };
        let admitted = |job, submit_seq| {
            app_job(
                job,
                submit_seq,
                blob::encode_app_spec(&AppSpec::Kclist { k: 3 }),
            )
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
        let done = Terminal::Finished {
            count: 8,
            agg: Vec::new(),
            report: vec![1],
        };
        let recs = vec![
            admitted(7, 2),
            admitted(4, 1),
            admitted(9, 3),
            admitted(11, 4),
            admitted(12, 5),
            app_job(13, 6, vec![0xFF]),
            Record::JobCancelled { job: 4 },
            committed(7, vec![]),
            committed(9, vec![1]),
            done.record(11),
            Record::JobFailed {
                job: 12,
                error: "boom".into(),
            },
        ];
        let mut state = ServerState::new(0);
        restore_from_replay(&mut state, &Replay::fold(recs, 0));
        let phase = |job| state.jobs[&job].phase.clone();
        assert_eq!(phase(4), Phase::Ended(Terminal::Cancelled));
        assert_eq!(phase(11), Phase::Ended(done));
        assert_eq!(phase(12), Phase::Ended(Terminal::Failed("boom".into())));
        assert!(matches!(
            phase(13),
            Phase::Ended(Terminal::Failed(e)) if e.starts_with("journal: undecodable app spec")
        ));
        let order: Vec<u64> = state.queue.values().copied().collect();
        assert_eq!(order, [7, 9]);
        let resume = state.jobs[&7].resume.as_ref().expect("job 7 resumes");
        assert_eq!((resume.rounds_done, resume.committed.count), (1, 5));
        assert!(state.jobs[&9].resume.is_none());
        assert_eq!((state.tenant_inflight["t"], state.next_job), (2, 14));
    }
}
