//! The worker process: serves driver sessions over a TCP connection.
//!
//! A worker accepts a single connection and inspects its first frame. A
//! plain driver `Hello` starts one classic session: the worker answers
//! the handshake, then serves `Assign`ed rounds with the in-process
//! multi-core executor. A [`Frame::Mux`] envelope instead switches the
//! connection into *multiplexed* mode for a `fractal serve` daemon: every
//! envelope is demultiplexed by job id onto a per-job **virtual session**
//! — the same session loop, running over in-process channels — so several
//! concurrent jobs share the one physical connection, each with its own
//! handshake, rounds, steal traffic and flushes.
//!
//! While a round runs, idle cores *pull* extra root words from the driver
//! ([`WorkerHooks`]) and the session's reader serves relayed
//! `StealRequest`s out of the running job's own queues
//! ([`fractal_runtime::ExternalJobHandle::steal_root`]) — the driver
//! mediates all steal traffic, so the worker never opens peer connections.
//!
//! Round completion is an event, not something the driver finds on a
//! tick: the moment a core runs dry (its [`WorkerHooks::pull`], which
//! always follows that core's last `root_done`) it sends the root words
//! completed so far as a `Heartbeat`, so the driver can broadcast `Done`
//! as soon as the last core anywhere finishes.
//!
//! Threads per session: the session loop is the frame **reader**; each
//! `Assign` spawns a **job** thread (the executor blocks it until the
//! round drains); a **heartbeat** thread beats every ~15 ms for liveness
//! (the driver's staleness watchdog) and progress (it carries whatever
//! completed since the last report, which on a long round feeds the
//! `Progress` events) — no job waits on it, and it stops the moment the
//! session ends. All writes to the driver go
//! through one mutex-guarded sink, so frames never interleave — in mux
//! mode the sink is a [`MuxSink`] sharing the physical stream's lock with
//! every other job. Concurrent jobs each run `cores` executor threads
//! (deliberate oversubscription: the OS time-slices them, and
//! bit-identical results never depend on scheduling).

use crate::app::RoundRunner;
use crate::blob::{self, AppSpec};
use crate::frame::{
    decode_frame, expect_hello, read_frame, ChannelSource, Frame, FrameSink, FrameSource, MuxSink,
    Role, SHUTDOWN_ROUND,
};
use crate::invalid;
use crate::linkfault::{DedupSource, FaultySink};
use fractal_core::FractalContext;
use fractal_graph::Graph;
use fractal_runtime::fault::InjectedPanic;
use fractal_runtime::steal::decode_unit;
use fractal_runtime::sync::Mutex;
use fractal_runtime::sync::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use fractal_runtime::{
    ClusterConfig, ExternalHooks, ExternalJobHandle, ExternalPull, FaultConfig, JobReport,
    LinkFaultConfig, LinkFaultInjector, WsMode,
};
use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How a worker session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The driver sent `Done{SHUTDOWN_ROUND}`: clean end of job.
    Shutdown,
    /// The driver connection dropped (EOF or I/O error) mid-session.
    Disconnected,
}

/// Heartbeat period: liveness and progress only (completion is reported
/// by [`WorkerHooks::pull`]). Keep well under the driver's staleness
/// watchdog.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(15);

/// How long a puller waits for its relayed steal reply before giving the
/// core back to the local steal loop (the reply is consumed as a *stale*
/// reply by a later pull — never lost).
const PULL_WAIT: Duration = Duration::from_millis(25);

type ReplySlot = (u64, Option<Vec<u8>>);

/// The graphs one physical connection holds, by the id its driver or
/// daemon gave each (DESIGN.md §12.4). A classic session owns its
/// connection's; on a multiplexed connection the dispatcher keeps them
/// for every session, until a [`Frame::Forget`] drops one.
type Graphs = Arc<Mutex<HashMap<u64, Arc<Graph>>>>;

/// Takes a session's job part: keeps the graph it carries under its id,
/// or finds the graph it names among those the connection holds.
fn hold(graphs: &Graphs, part: &[u8]) -> Result<(AppSpec, Arc<Graph>), String> {
    let (id, app, graph) = blob::decode_job_part(part).map_err(|e| format!("job part: {e}"))?;
    let mut held = graphs.lock();
    let graph = match graph {
        Some(graph) => {
            let graph = Arc::new(graph);
            held.insert(id, Arc::clone(&graph));
            graph
        }
        None => held
            .get(&id)
            .cloned()
            .ok_or_else(|| format!("graph {id} is not held on this connection"))?,
    };
    Ok((app, graph))
}

/// State shared between the reader, job, heartbeat and executor threads
/// of one session (physical or virtual — `K` is its frame sink).
struct Shared<K: FrameSink> {
    writer: Mutex<K>,
    seq: AtomicU32,
    round: AtomicU32,
    round_done: AtomicBool,
    disconnected: AtomicBool,
    completed: Mutex<Vec<u64>>,
    handle: Mutex<Option<ExternalJobHandle>>,
    reply_tx: Mutex<Option<Sender<ReplySlot>>>,
    /// The session's link-fault injector, when the link is armed; its
    /// count feeds `link_faults_injected` in every flush's report.
    injector: Option<Arc<LinkFaultInjector>>,
    /// Injections already reported by earlier flushes (delta encoding —
    /// the driver *sums* reports, so each flush carries only its own).
    injected_reported: AtomicU64,
}

impl<K: FrameSink> Shared<K> {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        // ordering: Relaxed — sequence numbers only need fetch_add atomicity for
        // uniqueness; frame payloads are serialized under the stream lock below.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.send_with_seq(seq, frame)
    }

    /// Sends with an explicit sequence number (steal replies echo the
    /// request's seq so the driver can match them to pending steals).
    fn send_with_seq(&self, seq: u32, frame: &Frame) -> io::Result<()> {
        let mut w = self.writer.lock();
        let res = w.send(seq, frame);
        if res.is_err() {
            // ordering: SeqCst — disconnect flag; set once on send failure, polled by
            // pull()/serve loop. Rare transition, not a hot read, so the strongest
            // ordering is free.
            self.disconnected.store(true, Ordering::SeqCst);
        }
        res
    }
}

/// The executor-side pull source: asks the driver for foreign root words
/// when local stealing comes up empty.
struct WorkerHooks<K: FrameSink> {
    shared: Arc<Shared<K>>,
    round: u32,
    rx: Mutex<Receiver<ReplySlot>>,
}

impl<K: FrameSink> WorkerHooks<K> {
    /// A steal reply carrying a unit: verify its checksum, ack or nack,
    /// and hand it to the executor.
    fn accept(&self, word: u64, bytes: Vec<u8>) -> ExternalPull {
        match decode_unit(&bytes) {
            Ok(unit) => {
                let _ = self.shared.send(&Frame::Ack {
                    round: self.round,
                    word,
                });
                ExternalPull::Unit {
                    unit,
                    wire_bytes: bytes.len() as u64,
                }
            }
            Err(_) => {
                let _ = self.shared.send(&Frame::Nack {
                    round: self.round,
                    word,
                });
                ExternalPull::Empty
            }
        }
    }
}

impl<K: FrameSink + 'static> ExternalHooks for WorkerHooks<K> {
    fn job_started(&self, handle: ExternalJobHandle) {
        *self.shared.handle.lock() = Some(handle);
    }

    fn pull(&self) -> ExternalPull {
        // ordering: SeqCst — pairs with the serve loop's SeqCst stores of
        // disconnected/round_done; pull() runs between units, not in the kernel
        // hot loop.
        if self.shared.disconnected.load(Ordering::SeqCst)
            || self.shared.round_done.load(Ordering::SeqCst)
        {
            return ExternalPull::Drained;
        }
        // This core has run dry, after its last `root_done`: report what
        // completed now, so the round's `Done` never waits for a beat.
        // Before the `try_lock` — a contended core must report too.
        let completed = std::mem::take(&mut *self.shared.completed.lock());
        if !completed.is_empty() {
            let report = Frame::Heartbeat {
                round: self.round,
                completed,
            };
            if self.shared.send(&report).is_err() {
                return ExternalPull::Drained;
            }
        }
        // One puller at a time; contended cores go back to local stealing.
        let rx = match self.rx.try_lock() {
            Some(g) => g,
            None => return ExternalPull::Empty,
        };
        // Drain replies a previous (timed-out) pull left behind. A stale
        // *hit* must be used: the driver already recorded the transfer, so
        // this process is the word's only live owner.
        loop {
            match rx.try_recv() {
                Ok((word, Some(bytes))) => return self.accept(word, bytes),
                Ok((_, None)) => continue, // stale miss
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return ExternalPull::Drained,
            }
        }
        if self
            .shared
            .send(&Frame::StealRequest { round: self.round })
            .is_err()
        {
            return ExternalPull::Drained;
        }
        match rx.recv_timeout(PULL_WAIT) {
            Ok((word, Some(bytes))) => self.accept(word, bytes),
            Ok((_, None)) => ExternalPull::Empty, // miss
            Err(RecvTimeoutError::Timeout) => ExternalPull::Empty,
            Err(RecvTimeoutError::Disconnected) => ExternalPull::Drained,
        }
    }

    fn root_done(&self, word: u64) {
        self.shared.completed.lock().push(word);
    }
}

/// The round's commit point: stamps the report with this flush's share of
/// injected link faults and sends the `AggFlush`.
fn flush_round<K: FrameSink>(
    shared: &Shared<K>,
    round: u32,
    count: u64,
    agg: Vec<u8>,
    mut report: JobReport,
) {
    if let Some(inj) = &shared.injector {
        let now = inj.injected();
        // ordering: Relaxed — flushes are serialized per session; the
        // swap only carries the high-water mark between them.
        let last = shared.injected_reported.swap(now, Ordering::Relaxed);
        report.faults.link_faults_injected = now.saturating_sub(last);
    }
    let _ = shared.send(&Frame::AggFlush {
        round,
        count,
        agg,
        report: blob::encode_report(&report),
    });
}

/// The text of a unit's panic payload, for [`Frame::UnitFailed`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected unit panic at depth {}", p.depth)
    } else {
        "unit panicked with a non-string payload".to_string()
    }
}

/// Serves exactly one connection accepted on `listener` and returns how
/// it ended. The executor runs with `cores` threads and internal-only
/// local stealing (cross-process balance goes through the driver instead
/// of the in-process simulation).
pub fn serve(listener: &TcpListener, cores: usize) -> io::Result<ServeOutcome> {
    serve_with(listener, cores, None)
}

/// [`serve`] with an optional link-degradation fault plan (`fractal
/// worker --link-fault <seed>`). Faults are armed only on multiplexed
/// (serve-daemon) sessions: each job's virtual link gets a
/// deterministic, job-seeded injector, and the daemon's router dedups
/// the other end — classic single-job links stay exact.
///
/// The connection's first frame decides the mode: a driver `Hello` runs
/// one classic session, a [`Frame::Mux`] envelope runs the multiplexing
/// dispatcher until the physical connection shuts down.
pub fn serve_with(
    listener: &TcpListener,
    cores: usize,
    link_fault: Option<LinkFaultConfig>,
) -> io::Result<ServeOutcome> {
    accept_and_serve(listener, cores, link_fault, None)
}

/// [`serve_with`] plus the test seam `unit_panic`: a fault plan installed
/// in the executor of the first job this connection runs.
fn accept_and_serve(
    listener: &TcpListener,
    cores: usize,
    link_fault: Option<LinkFaultConfig>,
    unit_panic: Option<FaultConfig>,
) -> io::Result<ServeOutcome> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone()?;
    let first = read_frame(&mut reader)?;
    match &first.1 {
        Frame::Hello {
            role: Role::Driver, ..
        } => run_session(
            reader,
            stream,
            cores,
            Some(first),
            None,
            HEARTBEAT_EVERY,
            unit_panic,
            Graphs::default(),
        ),
        Frame::Mux { .. } => serve_mux(reader, stream, cores, first, link_fault, unit_panic),
        Frame::Done {
            round: SHUTDOWN_ROUND,
        } => Ok(ServeOutcome::Shutdown),
        _ => Err(invalid("expected driver Hello or Mux")),
    }
}

/// Runs one driver session over generic transports. `peeked` is a frame
/// the caller already read off the source (the mode-dispatch peek); it is
/// processed first. The session starts with the driver's `Hello`.
/// `heartbeat_every` is [`HEARTBEAT_EVERY`] everywhere but in the test
/// that silences the beat, and `unit_panic` (a fault plan for the job's
/// executor) is `None` everywhere but in the tests of a failing unit.
///
/// A unit that panics with no retries left fails its round: the job
/// thread catches the panic and sends [`Frame::UnitFailed`] in place of
/// the round's `AggFlush`, and the session goes on serving. A job part
/// that does not decode, or names a graph `graphs` lacks, fails the job
/// the same way.
#[allow(clippy::too_many_arguments)]
fn run_session<S, K>(
    mut source: S,
    sink: K,
    cores: usize,
    peeked: Option<(u32, Frame)>,
    injector: Option<Arc<LinkFaultInjector>>,
    heartbeat_every: Duration,
    unit_panic: Option<FaultConfig>,
    graphs: Graphs,
) -> io::Result<ServeOutcome>
where
    S: FrameSource,
    K: FrameSink + 'static,
{
    let shared = Arc::new(Shared {
        writer: Mutex::new(sink),
        seq: AtomicU32::new(0),
        round: AtomicU32::new(0),
        round_done: AtomicBool::new(false),
        disconnected: AtomicBool::new(false),
        completed: Mutex::new(Vec::new()),
        handle: Mutex::new(None),
        reply_tx: Mutex::new(None),
        injector,
        injected_reported: AtomicU64::new(0),
    });

    // Handshake: driver speaks first.
    expect_hello(peeked.map_or_else(|| source.recv(), Ok), Role::Driver)?;
    shared.send(&Frame::hello(Role::Worker, cores as u32))?;

    // Heartbeat thread: liveness + completed-word deltas. It waits on the
    // stop channel, so a timeout means a beat is due and anything else
    // (the sender dropped, at teardown or on an early return) ends it.
    let (hb_stop, hb_wait) = channel::<()>();
    let hb = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = hb_wait.recv_timeout(heartbeat_every) {
                let completed = std::mem::take(&mut *shared.completed.lock());
                let beat = Frame::Heartbeat {
                    // ordering: SeqCst — the current round is a rare
                    // control-plane read on a 1-per-interval thread.
                    round: shared.round.load(Ordering::SeqCst),
                    completed,
                };
                if shared.send(&beat).is_err() {
                    break;
                }
            }
        })
    };

    let mut runner: Option<RoundRunner> = None;
    let mut job: Option<thread::JoinHandle<()>> = None;
    let outcome;

    loop {
        let (seq, frame) = match source.recv() {
            Ok(f) => f,
            Err(_) => {
                outcome = ServeOutcome::Disconnected;
                break;
            }
        };
        match frame {
            Frame::Assign {
                round,
                recovery,
                job: job_blob,
                seed,
                roots,
            } => {
                // The driver never overlaps assigns with a running round:
                // joining here only waits out a just-finished flush.
                if let Some(h) = job.take() {
                    let _ = h.join();
                }
                if let Some(part) = job_blob {
                    let (app, graph) = match hold(&graphs, &part) {
                        Ok(held) => held,
                        Err(message) => {
                            let _ = shared.send(&Frame::UnitFailed { round, message });
                            continue;
                        }
                    };
                    let mut config = ClusterConfig::local(1, cores).with_ws(WsMode::InternalOnly);
                    if let Some(plan) = &unit_panic {
                        config = config.with_faults(plan.clone());
                    }
                    let fg = FractalContext::new(config).fractal_graph_shared(graph);
                    runner = Some(RoundRunner::new(app, fg));
                }
                let Some(runner) = runner.as_mut() else {
                    return Err(invalid("Assign before job blob"));
                };
                if let Some(bytes) = seed {
                    runner
                        .set_seeds(&bytes)
                        .map_err(|e| invalid(e.to_string()))?;
                }
                // ordering: SeqCst — round/round_done must be visible to the serve loop
                // before any steal for this round is answered; all worker-protocol flags
                // stay SeqCst.
                shared.round.store(round, Ordering::SeqCst);
                shared.round_done.store(false, Ordering::SeqCst);
                *shared.handle.lock() = None;
                let hooks: Option<Arc<dyn ExternalHooks>> = if recovery {
                    // Recovery passes re-run already-done words locally;
                    // they neither pull nor serve steals.
                    shared.round_done.store(true, Ordering::SeqCst);
                    *shared.reply_tx.lock() = None;
                    None
                } else {
                    let (tx, rx) = channel();
                    *shared.reply_tx.lock() = Some(tx);
                    Some(Arc::new(WorkerHooks {
                        shared: Arc::clone(&shared),
                        round,
                        rx: Mutex::new(rx),
                    }))
                };
                let shared_job = Arc::clone(&shared);
                let runner = runner.clone();
                job = Some(thread::spawn(move || {
                    match catch_unwind(AssertUnwindSafe(|| runner.run(round, roots, hooks))) {
                        Ok((count, agg, report)) => {
                            flush_round(&shared_job, round, count, agg, report)
                        }
                        Err(payload) => {
                            let message = panic_message(payload.as_ref());
                            let _ = shared_job.send(&Frame::UnitFailed { round, message });
                        }
                    }
                }));
            }
            Frame::StealRequest { round } => {
                // Relayed on behalf of a thief: serve out of the running
                // job's root queues, echoing the request's seq.
                // ordering: SeqCst — steal service is gated on the same round/round_done
                // flags the Assign arm stores with SeqCst.
                let word = if round == shared.round.load(Ordering::SeqCst)
                    && !shared.round_done.load(Ordering::SeqCst)
                {
                    shared.handle.lock().as_ref().and_then(|h| h.steal_root())
                } else {
                    None
                };
                let reply = match word {
                    Some(word) => Frame::root_unit(round, word),
                    None => Frame::miss(round),
                };
                if shared.send_with_seq(seq, &reply).is_err() {
                    outcome = ServeOutcome::Disconnected;
                    break;
                }
            }
            Frame::StealReply { round, word, unit } => {
                // ordering: SeqCst — stale-round steal replies are dropped; same SeqCst
                // protocol flags as above.
                if round == shared.round.load(Ordering::SeqCst) {
                    if let Some(tx) = shared.reply_tx.lock().as_ref() {
                        let _ = tx.send((word, unit));
                    }
                }
            }
            Frame::Done { round } => {
                if round == SHUTDOWN_ROUND {
                    outcome = ServeOutcome::Shutdown;
                    break;
                }
                // ordering: SeqCst — Done marks the round drained for pull(); pairs with
                // the SeqCst loads in pull() and the steal arms.
                if round == shared.round.load(Ordering::SeqCst) {
                    shared.round_done.store(true, Ordering::SeqCst);
                }
            }
            // Nothing else is driver → worker traffic; tolerate and move on.
            Frame::Hello { .. }
            | Frame::Ack { .. }
            | Frame::Nack { .. }
            | Frame::AggFlush { .. }
            | Frame::Heartbeat { .. }
            | Frame::Submit { .. }
            | Frame::Status { .. }
            | Frame::Cancel { .. }
            | Frame::Result { .. }
            | Frame::JobEvent { .. }
            | Frame::Mux { .. }
            | Frame::Watch { .. }
            | Frame::UnitFailed { .. }
            | Frame::Forget { .. } => {}
        }
    }

    // Unblock and reap everything: a running job sees Drained immediately
    // (round_done + dropped reply sender), the heartbeat thread wakes on
    // its dropped stop channel.
    // ordering: SeqCst — teardown: publish disconnected/round_done before
    // reaping threads so blocked pulls see Drained, not a hang.
    shared.disconnected.store(true, Ordering::SeqCst);
    shared.round_done.store(true, Ordering::SeqCst);
    *shared.reply_tx.lock() = None;
    if let Some(h) = job.take() {
        let _ = h.join();
    }
    drop(hb_stop);
    let _ = hb.join();
    // Flush-and-close the sink explicitly: an armed link may still hold
    // one reordered frame in its stash, and losing it would turn the
    // degraded link lossy (breaking the flush-is-commit contract).
    shared.writer.lock().close();
    Ok(outcome)
}

/// The multiplexing dispatcher: routes [`Frame::Mux`] envelopes from a
/// `fractal serve` daemon onto per-job virtual sessions, each running the
/// unmodified [`run_session`] loop over an in-process channel and a
/// [`MuxSink`] back onto the shared physical stream.
///
/// A job's first envelope (its driver `Hello`) spawns the session; its
/// `Done{SHUTDOWN_ROUND}` (or the daemon dropping the job's routing)
/// ends it. Frames for an already-ended job are discarded. Session
/// threads are *detached*, never joined here: a cancelled job's session
/// may spend minutes draining in-flight enumeration whose flush nobody
/// wants, and blocking the dispatcher on it would stall every other
/// job's traffic (their handshakes included). The dispatcher itself ends
/// when the physical connection shuts down: a bare `Done{SHUTDOWN_ROUND}`
/// is a clean daemon shutdown; EOF or a read error is a disconnect —
/// either way every virtual session sees channel EOF, and still-draining
/// discarded work dies with the process. `unit_panic` arms the first
/// job's session only (see [`run_session`]).
///
/// The dispatcher keeps the connection's graphs. It takes the graph an
/// `Assign` carries before the job's session sees the frame, and passes
/// the `Assign` on without it, so a later `Assign` that only names the id
/// finds the graph whichever session runs first. [`Frame::Forget`] drops
/// one.
fn serve_mux(
    mut reader: TcpStream,
    writer: TcpStream,
    cores: usize,
    first: (u32, Frame),
    link_fault: Option<LinkFaultConfig>,
    mut unit_panic: Option<FaultConfig>,
) -> io::Result<ServeOutcome> {
    let physical: Arc<Mutex<TcpStream>> = Arc::new(Mutex::new(writer));
    let physical_seq = Arc::new(AtomicU32::new(0));
    let graphs = Graphs::default();
    let mut sessions: HashMap<u64, Sender<(u32, Frame)>> = HashMap::new();
    let mut next = first;
    let outcome;
    loop {
        match next.1 {
            Frame::Mux { job, inner } => {
                // The physical frame's checksum already covered `inner`;
                // a decode failure here means a daemon-side bug, not wire
                // corruption. Drop the frame rather than kill every other
                // job on the connection.
                if let Ok(mut inner_frame) = decode_frame(&inner) {
                    if let Frame::Assign {
                        job: Some(part), ..
                    } = &mut inner_frame.1
                    {
                        // A part that does not decode is passed on as it
                        // is: the session reports it.
                        if let Ok((id, app, Some(graph))) = blob::decode_job_part(part) {
                            graphs.lock().insert(id, Arc::new(graph));
                            *part = blob::encode_job_part(&app, id, None);
                        }
                    }
                    let shutdown = matches!(
                        inner_frame.1,
                        Frame::Done {
                            round: SHUTDOWN_ROUND
                        }
                    );
                    let session = sessions.entry(job).or_insert_with(|| {
                        let unit_panic = unit_panic.take();
                        let graphs = Arc::clone(&graphs);
                        let (tx, rx) = channel();
                        let sink =
                            MuxSink::new(job, Arc::clone(&physical), Arc::clone(&physical_seq));
                        // Detached on purpose — see the module doc above.
                        match &link_fault {
                            Some(cfg) => {
                                // Deterministic per-job plan: same seed +
                                // same job id → identical fault stream.
                                let mut cfg = *cfg;
                                cfg.seed ^= job;
                                let injector = Arc::new(LinkFaultInjector::new(cfg));
                                let faulty = FaultySink::new(sink, Arc::clone(&injector));
                                let source = DedupSource::new(ChannelSource(rx));
                                thread::spawn(move || {
                                    run_session(
                                        source,
                                        faulty,
                                        cores,
                                        None,
                                        Some(injector),
                                        HEARTBEAT_EVERY,
                                        unit_panic,
                                        graphs,
                                    )
                                });
                            }
                            None => {
                                thread::spawn(move || {
                                    let source = ChannelSource(rx);
                                    run_session(
                                        source,
                                        sink,
                                        cores,
                                        None,
                                        None,
                                        HEARTBEAT_EVERY,
                                        unit_panic,
                                        graphs,
                                    )
                                });
                            }
                        }
                        tx
                    });
                    let dead = session.send(inner_frame).is_err();
                    if dead || shutdown {
                        // Ended (or ending) session: forget its route so
                        // the map holds only live jobs; the session thread
                        // winds itself down on channel EOF.
                        sessions.remove(&job);
                    }
                }
            }
            Frame::Forget { graph } => {
                graphs.lock().remove(&graph);
            }
            Frame::Done {
                round: SHUTDOWN_ROUND,
            } => {
                outcome = ServeOutcome::Shutdown;
                break;
            }
            // Anything else on the physical link is stray traffic.
            _ => {}
        }
        next = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(_) => {
                outcome = ServeOutcome::Disconnected;
                break;
            }
        };
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::AppSpec;
    use crate::driver::{run_cluster, DriverConfig};
    use crate::frame::ChannelSink;
    use crate::serve::{load_snapshot, shutdown_workers, ServeConfig, Server};
    use crate::{Client, JobTerminal};
    use fractal_apps::{cliques, motifs};
    use fractal_graph::gen;
    use std::collections::HashSet;

    /// One whole session with the beat silenced (a period of an hour), so
    /// nothing in it can be found on a tick: the round's completion must
    /// arrive because a core ran dry, and `run_session` must return
    /// because it was told to. The driver side is scripted here, frame by
    /// frame; the only clock is the bound that fails a hung run.
    fn silent_session_completes_and_returns(cores: usize) {
        let (done_tx, done_rx) = channel();
        thread::spawn(move || {
            let graph = gen::mico_like(60, 4, 13);
            let app = AppSpec::Motifs {
                k: 3,
                use_labels: false,
                decomposed: false,
            };
            let job = blob::encode_job_part(&app, 0, Some(&blob::encode_graph(&graph)));
            let fg = FractalContext::new(ClusterConfig::local(1, 1)).fractal_graph(graph);
            let roots = motifs::motifs_fractoid(&fg, 3, false).step_roots();
            let expected = motifs::motifs(&fg, 3);

            let (to_worker, from_driver) = channel();
            let (to_driver, from_worker) = channel();
            let session = thread::spawn(move || {
                let hour = Duration::from_secs(3600);
                let source = ChannelSource(from_driver);
                run_session(
                    source,
                    ChannelSink(to_driver),
                    cores,
                    None,
                    None,
                    hour,
                    None,
                    Graphs::default(),
                )
            });
            let send = |seq: u32, frame: Frame| to_worker.send((seq, frame)).expect("session up");
            // The next frame that is not steal traffic; every pull is
            // answered with a miss, as a driver with no other worker would.
            let next = || loop {
                match from_worker.recv().expect("session up") {
                    (seq, Frame::StealRequest { round }) => send(seq, Frame::miss(round)),
                    (_, frame) => break frame,
                }
            };

            send(
                0,
                Frame::Hello {
                    role: Role::Driver,
                    cores: 0,
                },
            );
            assert!(matches!(
                next(),
                Frame::Hello {
                    role: Role::Worker,
                    ..
                }
            ));
            let mut owed: HashSet<u64> = roots.iter().copied().collect();
            assert!(!owed.is_empty());
            send(
                1,
                Frame::Assign {
                    round: 0,
                    recovery: false,
                    job: Some(job),
                    seed: None,
                    roots,
                },
            );
            while !owed.is_empty() {
                match next() {
                    Frame::Heartbeat {
                        round: 0,
                        completed,
                    } => {
                        assert!(!completed.is_empty(), "the silenced beat fired");
                        for w in completed {
                            assert!(owed.remove(&w), "word {w} reported twice or never assigned");
                        }
                    }
                    other => panic!("expected a completion report, got {other:?}"),
                }
            }
            send(2, Frame::Done { round: 0 });
            match next() {
                Frame::AggFlush { round: 0, agg, .. } => {
                    assert_eq!(blob::decode_motifs_map(&agg).expect("agg"), expected);
                }
                other => panic!("expected the flush, got {other:?}"),
            }
            send(
                3,
                Frame::Done {
                    round: SHUTDOWN_ROUND,
                },
            );
            let outcome = session.join().expect("session thread").expect("session");
            assert_eq!(outcome, ServeOutcome::Shutdown);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("session hung or failed: it waited on the silenced beat");
    }

    /// A plan that panics a unit at its first depth-1 level with no
    /// retries, so the job it arms fails on the first injected fault.
    fn panic_with_no_retries() -> FaultConfig {
        FaultConfig {
            retry_budget: 0,
            ..FaultConfig::unit_panic(1, 1)
        }
    }

    /// Runs `f` on a thread and returns its value; fails if that takes
    /// more than a second.
    fn within_a_second<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(1))
            .expect("the job did not end within 1 s")
    }

    /// A worker thread serving one TCP connection with `unit_panic`
    /// armed, and the address to connect to it.
    fn armed_worker() -> (thread::JoinHandle<io::Result<ServeOutcome>>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let worker = thread::spawn(move || {
            accept_and_serve(&listener, 2, None, Some(panic_with_no_retries()))
        });
        (worker, TcpStream::connect(addr).expect("connect"))
    }

    const MOTIFS: AppSpec = AppSpec::Motifs {
        k: 3,
        use_labels: false,
        decomposed: false,
    };

    /// The `--local-cluster` driver path: `run_cluster` over TCP to a
    /// worker whose unit panics with no retries left. The job fails within
    /// a second with an error naming the panic, and the worker's classic
    /// session is shut down cleanly.
    #[test]
    fn a_failed_unit_fails_a_cluster_job() {
        let (worker, stream) = armed_worker();
        let config = DriverConfig::new(MOTIFS, gen::mico_like(60, 4, 13));
        let result = within_a_second(move || run_cluster(vec![stream], vec!["w0".into()], config));
        match result {
            Err(e) => assert!(
                e.to_string().contains("injected unit panic at depth 1"),
                "the error does not name the panic: {e}"
            ),
            Ok(_) => panic!("the job succeeded despite the failed unit"),
        }
        let outcome = worker.join().expect("worker thread").expect("session");
        assert_eq!(outcome, ServeOutcome::Shutdown);
    }

    /// The `serve` path: a daemon over one mux worker whose first job's
    /// unit panics with no retries left. That job fails within a second,
    /// naming the panic, and the daemon's next job completes with the
    /// single-process count.
    #[test]
    fn a_failed_unit_fails_its_served_job_and_the_daemon_serves_on() {
        const SNAPSHOT: &str = "gen:mico:60:13";
        let (worker, stream) = armed_worker();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let workers = vec![(stream, "w0".to_string())];
        let server =
            Arc::new(Server::bind(listener, workers, ServeConfig::default()).expect("bind"));
        let addr = server.local_addr().expect("addr").to_string();
        let accept = Arc::clone(&server);
        thread::spawn(move || accept.run());

        let mut client = Client::connect(&addr).expect("client");
        let job = client
            .submit("t", 0, SNAPSHOT, &MOTIFS, "first")
            .expect("submit");
        let (mut client, terminal) = within_a_second(move || {
            let terminal = client.wait(job).expect("wait");
            (client, terminal)
        });
        match terminal {
            JobTerminal::Failed(message) => assert!(
                message.contains("injected unit panic at depth 1"),
                "the failure does not name the panic: {message}"
            ),
            other => panic!("expected the job to fail, got {other:?}"),
        }

        let fg = FractalContext::new(ClusterConfig::local(1, 1))
            .fractal_graph(load_snapshot(SNAPSHOT).expect("snapshot"));
        let triangles = AppSpec::Kclist { k: 3 };
        let job = client
            .submit("t", 0, SNAPSHOT, &triangles, "second")
            .expect("submit");
        match client.wait(job).expect("wait") {
            JobTerminal::Done { count } => assert_eq!(count, cliques::count_kclist(&fg, 3)),
            other => panic!("the next job did not complete: {other:?}"),
        }
        shutdown_workers(&server);
        let outcome = worker.join().expect("worker thread").expect("session");
        assert_eq!(outcome, ServeOutcome::Shutdown);
    }

    #[test]
    fn silent_session_one_core() {
        silent_session_completes_and_returns(1);
    }

    /// Two cores: whichever finishes second finds the other holding the
    /// pull lock and must still report before it returns.
    #[test]
    fn silent_session_two_cores() {
        silent_session_completes_and_returns(2);
    }
}
