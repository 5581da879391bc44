//! Job execution: core main loops, context API, exact termination and
//! supervised recovery.
//!
//! A *job* corresponds to one fractal step (§4): every core starts from an
//! empty subgraph and a partition of the root extensions "determined
//! on-the-fly using its unique core identifier", drives its own DFS, and —
//! once its partition is exhausted — turns thief, preferring internal over
//! external steals (§4.2).
//!
//! ## Termination
//!
//! The job keeps one global `pending` counter with the invariant
//!
//! > `pending` = unclaimed root words + claimed-but-unfinished root words
//! > + in-flight stolen units.
//!
//! Root partitions are pre-counted before any thread starts; whoever claims
//! a root word decrements once its subtree finishes. Inner level queues are
//! *not* globally counted (their words are covered by the enclosing unit);
//! a thief inflates the counter **before** claiming from one, so work can
//! never appear finished while a stolen fragment is in flight. The
//! decrement that drives the counter to zero sets the `done` flag; idle
//! cores and steal servers poll it.
//!
//! ## Supervision and recovery
//!
//! Every dispatched unit runs under `catch_unwind` with a retry budget and
//! exponential backoff ([`dispatch_unit`]): a panicking unit's registered
//! levels are retired (collecting the words thieves already took as
//! [`ReplayExclusions`]) and the unit re-executes from scratch, skipping
//! exactly those words. A unit that exhausts its retries fails the job:
//! every core stops and [`run_job_with`] re-raises the unit's panic on
//! the caller's thread. Fail-stopped ("killed") cores stop cooperating;
//! the watchdog thread detects them — heartbeat staleness raises a trip,
//! the core's own fail-stop flag confirms — and *reconciles*: unclaimed
//! words of the dead core's pre-counted root partition and its in-flight
//! unit become [`RecoveryUnit`]s on the global recovery queue, which
//! surviving cores drain ahead of stealing. Every recovery unit carries
//! exactly one pre-existing `pending` obligation, so no counter arithmetic
//! happens at reconciliation and the invariant above survives worker
//! death. Unit side effects are staged and committed only on unit success
//! (see `fractal-core`), making re-execution exactly-once.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::fault::{
    install_quiet_panic_hook, FaultCtx, RecoveryUnit, ReplayExclusions, WorkerKilled,
};
use crate::level::{CoreSlot, GlobalCoreId, LevelQueue, WorkerRegistry};
use crate::stats::{CoreStats, JobReport};
use crate::steal::{
    decode_unit, steal_from_registry, steal_server, ServerStats, StealRequest, StolenUnit,
};
use crate::sync::channel::{bounded, unbounded, RecvTimeoutError, Sender};
use crate::sync::{AtomicBool, AtomicI64, Mutex, Ordering};
use crate::trace::{CoreTrace, EventKind, Recorder, TraceDump};
use crate::{ClusterConfig, WsMode};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Global pending/done state of one job (see module docs for the
/// invariant).
#[derive(Debug)]
pub struct JobState {
    pending: AtomicI64,
    done: AtomicBool,
    /// The panic of a unit that exhausted its retries (see
    /// [`fail`](Self::fail)).
    failure: Mutex<Option<Box<dyn Any + Send>>>,
}

impl JobState {
    /// Creates the state with `roots` pre-counted units.
    pub fn new(roots: usize) -> Self {
        JobState {
            pending: AtomicI64::new(roots as i64),
            done: AtomicBool::new(roots == 0),
            failure: Mutex::new(None),
        }
    }

    /// Fails the job with a unit's panic payload: flags `done` with
    /// obligations still open, so every core stops, and keeps the first
    /// payload for [`run_job_with`] to re-raise on the caller's thread.
    pub fn fail(&self, payload: Box<dyn Any + Send>) {
        self.failure.lock().get_or_insert(payload);
        // ordering: SeqCst — the same done flag sub_pending stores.
        self.done.store(true, Ordering::SeqCst);
    }

    /// Adds `n` in-flight units (stolen-unit inflation).
    // ordering: SeqCst — exact-termination counter (§4.2): every pending
    // transition must be totally ordered against the done flag, or a core
    // could observe done=true while a stolen unit is still in flight.
    #[inline]
    pub fn add_pending(&self, n: i64) {
        self.pending.fetch_add(n, Ordering::SeqCst);
    }

    /// Completes one unit; the decrement that reaches zero flags `done`.
    ///
    /// A decrement past zero is a double-completion bug (e.g. a unit both
    /// retried and reconciled): it fails loudly in debug builds and
    /// saturates at zero in release builds, so a latent accounting bug
    /// degrades to a too-early `done` instead of a counter wrapped
    /// negative that can never terminate.
    #[inline]
    // ordering: SeqCst — the decrement, the saturating undo and the done
    // store form one totally-ordered protocol; see add_pending.
    pub fn sub_pending(&self) {
        let prev = self.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "sub_pending underflow: pending was {prev}");
        if prev <= 1 {
            if prev < 1 {
                // Saturate: undo the decrement that went below zero.
                self.pending.fetch_add(1, Ordering::SeqCst);
            }
            self.done.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the job has fully completed.
    // ordering: SeqCst — pairs with sub_pending's store; done is polled
    // between units, never in the kernel inner loop.
    #[inline]
    pub fn done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Current pending count (diagnostics).
    // ordering: SeqCst — diagnostics read of the same SeqCst counter.
    pub fn pending(&self) -> i64 {
        self.pending.load(Ordering::SeqCst)
    }
}

/// What an external steal source handed an idle core (see
/// [`ExternalHooks::pull`]).
#[derive(Debug)]
pub enum ExternalPull {
    /// A unit obtained from outside the process. `wire_bytes` is the size
    /// of the serialized frame it arrived in (accounted as
    /// [`CoreStats::bytes_received`]). The executor inflates `pending`
    /// before dispatching it — the puller must **not** touch the counter.
    Unit {
        /// The stolen unit (decoded and checksum-verified by the source).
        unit: StolenUnit,
        /// Serialized size of the unit on the wire.
        wire_bytes: u64,
    },
    /// No unit available right now; the core keeps its local steal loop
    /// running and will pull again.
    Empty,
    /// The external source is finished for good (job-wide completion or a
    /// lost coordinator): no further units will ever arrive. The first
    /// `Drained` releases the termination hold (see [`run_job_with`]).
    Drained,
}

/// A handle into a running job, given to [`ExternalHooks::job_started`]:
/// the surface a cross-process steal server needs to serve root words out
/// of this process.
#[derive(Clone)]
pub struct ExternalJobHandle {
    registries: Vec<Arc<WorkerRegistry>>,
    job: Arc<JobState>,
}

impl ExternalJobHandle {
    /// Claims one **root** word (a counted, depth-0 level entry) for
    /// export to another process, transferring its `pending` obligation
    /// out of this job: from the moment this returns `Some`, the word is
    /// the remote coordinator's to account for. Returns `None` when no
    /// unclaimed root words remain (inner, uncounted levels are never
    /// exported — they stay balanced by in-process stealing).
    pub fn steal_root(&self) -> Option<u64> {
        crate::steal::steal_root_for_export(&self.registries, &self.job)
    }

    /// Whether the job has fully completed.
    pub fn done(&self) -> bool {
        self.job.done()
    }

    /// Current pending count (diagnostics).
    pub fn pending(&self) -> i64 {
        self.job.pending()
    }
}

/// Callbacks connecting a job to an external (cross-process) work-stealing
/// substrate. All methods are invoked from executor threads and must be
/// cheap or bounded-blocking; `pull` may block briefly (it runs in the
/// idle-core steal loop).
///
/// A job run with hooks holds one extra `pending` obligation so it cannot
/// terminate while the external source may still deliver units; the first
/// [`ExternalPull::Drained`] releases it (see [`run_job_with`]).
pub trait ExternalHooks: Send + Sync {
    /// Called once, before any core starts, with the handle external steal
    /// servers use to export this job's root words.
    fn job_started(&self, _handle: ExternalJobHandle) {}

    /// Asks the external source for one unit. Called by idle cores after
    /// local (internal + simulated-external) stealing came up empty.
    fn pull(&self) -> ExternalPull {
        ExternalPull::Drained
    }

    /// Reports that a **root** unit (empty prefix) completed on this
    /// process, whether locally assigned or externally pulled. Drives the
    /// coordinator's completion tracking.
    fn root_done(&self, _word: u64) {}
}

/// Per-job state of the external-hooks integration: the hooks plus the
/// once-only release latch of the termination hold.
struct ExternalState {
    hooks: Arc<dyn ExternalHooks>,
    hold_released: AtomicBool,
}

/// Defines a job: its root extensions and how to build each core's task.
pub trait JobSpec: Sync {
    /// The root extension words (single vertices or edges, Fig. 1). The
    /// runtime partitions them across cores by striding on the global core
    /// index.
    fn roots(&self) -> Vec<u64>;

    /// Builds the per-core task (enumerator state, aggregation shards, …).
    fn make_core_task<'s>(&'s self, id: GlobalCoreId) -> Box<dyn CoreTask + 's>;
}

/// The per-core computation driven by the runtime.
pub trait CoreTask: Send {
    /// Processes one dispatched unit: rebuild state from `prefix`, apply
    /// `word`, and run the DFS below it. Deeper levels must be registered
    /// through [`CoreCtx::push_level`] and fully drained before returning.
    ///
    /// Side effects must be *staged* and committed only when this method
    /// returns normally: the supervisor may unwind it mid-flight and
    /// re-execute the unit from scratch (after [`abort_unit`]
    /// (Self::abort_unit)), and re-execution must not double-count.
    fn process_unit(&mut self, ctx: &mut CoreCtx<'_>, prefix: &[u64], word: u64);

    /// Discards staged (uncommitted) side effects after `process_unit`
    /// panicked, restoring the task for its next dispatch. Tasks whose
    /// `process_unit` is side-effect-free until return need not override
    /// this.
    fn abort_unit(&mut self, _ctx: &mut CoreCtx<'_>) {}

    /// Called once per core after the job completes (merge shards, …).
    /// Also called on a fail-stopped core before its thread exits: by the
    /// durable-commit fault model, everything committed by completed units
    /// survives the death.
    fn finish(&mut self, _ctx: &mut CoreCtx<'_>) {}
}

/// The runtime services available to a [`CoreTask`] while processing.
pub struct CoreCtx<'a> {
    id: GlobalCoreId,
    slot: &'a CoreSlot,
    t0: Instant,
    fcx: &'a FaultCtx,
    registries: &'a [Arc<WorkerRegistry>],
    /// Replay exclusions of the unit currently being (re-)executed:
    /// level-prefix → words already committed elsewhere, filtered out in
    /// [`push_level`](Self::push_level). Empty on first executions.
    exclusions: ReplayExclusions,
    /// Statistics being accumulated for this core.
    pub stats: CoreStats,
    /// The flight recorder of this core (no-op unless the job's
    /// [`TraceConfig`](crate::trace::TraceConfig) enables it).
    pub recorder: Recorder,
}

impl CoreCtx<'_> {
    /// This core's identity.
    #[inline]
    pub fn core_id(&self) -> GlobalCoreId {
        self.id
    }

    /// Nanoseconds since the job started.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// This core's health record.
    #[inline]
    fn health(&self) -> &crate::fault::CoreHealth {
        self.fcx.health.core(self.id.worker, self.id.core)
    }

    /// Records this core's fail-stop into the flight recorder (and its
    /// tap) before the core stops cooperating, so the watchdog's
    /// last-words drain always captures at least the death marker.
    fn record_fail_stop(&mut self) {
        let t = self.now_ns();
        self.recorder.record(t, EventKind::FaultInjected, 0, 0);
    }

    /// Whether the fault plan wants this core to fail-stop now.
    fn should_die_now(&self) -> bool {
        match &self.fcx.injector {
            Some(inj) => {
                let now = self.t0.elapsed().as_nanos() as u64;
                inj.should_die(self.id.worker, &self.fcx.ledger, now, self.registries.len())
            }
            None => false,
        }
    }

    /// Registers a new enumeration level (prefix snapshot + extensions) and
    /// returns its shared handle. The task claims words from the handle and
    /// **must** drain it (claim until `None`) before calling
    /// [`pop_level`](Self::pop_level).
    ///
    /// This is also the per-unit injection and supervision point: the
    /// heartbeat is stamped here, replay exclusions are applied, and the
    /// injector may stall the core, panic the unit at its configured depth,
    /// or fail-stop the whole worker (unwinding with
    /// [`WorkerKilled`]).
    pub fn push_level(&mut self, prefix: &[u64], extensions: Vec<u64>) -> Arc<LevelQueue> {
        let mut extensions = extensions;
        if !self.exclusions.is_empty() {
            if let Some(excl) = self.exclusions.get(prefix) {
                extensions.retain(|w| !excl.contains(w));
            }
        }
        let now = self.now_ns();
        self.health().beat(now);
        if self.fcx.injector.is_some() {
            self.fault_hooks(prefix.len());
        }
        if self.recorder.is_enabled() {
            let t = self.now_ns();
            self.recorder.record(
                t,
                EventKind::LevelPush,
                prefix.len() as u64,
                extensions.len() as u64,
            );
            self.recorder.record_ext_depth(prefix.len() as u64);
        }
        let level = Arc::new(LevelQueue::new(prefix.to_vec(), extensions, false));
        self.slot.push(level.clone());
        level
    }

    /// The cold injection path of [`push_level`](Self::push_level), kept
    /// out of line so fault-free runs pay one `Option` check.
    #[cold]
    fn fault_hooks(&mut self, depth: usize) {
        let Some(inj) = &self.fcx.injector else {
            return;
        };
        let stall = inj.stall_ms(self.id.worker, self.id.core, &self.fcx.ledger);
        if stall > 0 {
            let t = self.now_ns();
            self.recorder.record(t, EventKind::FaultInjected, 2, stall);
            std::thread::sleep(Duration::from_millis(stall));
            self.health().beat(self.now_ns());
        }
        if inj.should_panic_at(depth, &self.fcx.ledger) {
            let t = self.now_ns();
            self.recorder
                .record(t, EventKind::FaultInjected, 1, depth as u64);
            #[expect(
                clippy::panic,
                reason = "fault injection: the unit's catch_unwind turns this into a retry"
            )]
            std::panic::panic_any(crate::fault::InjectedPanic { depth });
        }
        if self.should_die_now() {
            let t = self.now_ns();
            self.recorder.record(t, EventKind::FaultInjected, 0, 0);
            #[expect(
                clippy::panic,
                reason = "fault injection: a simulated worker death unwinds to the unit's \
                          catch_unwind, which stops the core for the watchdog to reconcile"
            )]
            std::panic::panic_any(WorkerKilled);
        }
    }

    /// Unregisters the most recent level.
    pub fn pop_level(&mut self) {
        if self.recorder.is_enabled() {
            let t = self.now_ns();
            let depth = self.slot.depth().saturating_sub(1) as u64;
            self.recorder.record(t, EventKind::LevelPop, depth, 0);
        }
        self.slot.pop();
    }

    /// Records an aggregation-shard flush (called by the engine layer when
    /// a core hands its shard over for merging).
    pub fn record_agg_flush(&mut self, slot: u64, entries: u64) {
        if self.recorder.is_enabled() {
            let t = self.now_ns();
            self.recorder.record(t, EventKind::AggFlush, slot, entries);
        }
    }

    /// Adds to the extension-cost counter (§4.3).
    #[inline]
    pub fn add_ec(&mut self, n: u64) {
        self.stats.ec += n;
    }

    /// Folds one drained batch of intersection-kernel counters into this
    /// core's stats (call counts add; the arena high-water mark maxes) and
    /// records a [`EventKind::KernelFlush`] trace event carrying the
    /// scanned/invocation deltas.
    pub fn add_kernels(&mut self, merge: u64, gallop: u64, bitset: u64, scanned: u64, arena: u64) {
        self.stats.kernel_merge += merge;
        self.stats.kernel_gallop += gallop;
        self.stats.kernel_bitset += bitset;
        self.stats.kernel_scanned += scanned;
        if arena > self.stats.arena_peak_bytes {
            self.stats.arena_peak_bytes = arena;
        }
        if self.recorder.is_enabled() {
            let t = self.now_ns();
            self.recorder
                .record(t, EventKind::KernelFlush, scanned, merge + gallop + bitset);
        }
    }

    /// Updates the peak intermediate-state accounting with the task's own
    /// live bytes; the registered levels' bytes are added automatically.
    pub fn track_state_bytes(&mut self, task_bytes: u64) {
        let total = task_bytes + self.slot.resident_bytes() as u64;
        if total > self.stats.peak_state_bytes {
            self.stats.peak_state_bytes = total;
        }
    }
}

struct WorkerChannels {
    steal_tx: Vec<Sender<StealRequest>>,
}

/// What became of one dispatched unit.
enum UnitFate {
    /// The unit completed (possibly after retries) or was deliberately
    /// abandoned under a sabotaged-recovery plan, settling its `pending`
    /// obligation either way; or it exhausted its retries and failed the
    /// job ([`JobState::fail`]).
    Done,
    /// The core fail-stopped mid-unit. The obligation is still open; the
    /// slot's levels and the health record hold everything the watchdog
    /// needs to reconcile.
    Died,
}

/// Runs one unit under supervision: `catch_unwind`, a retry budget with
/// exponential backoff, heartbeat/in-flight bookkeeping, and exclusion
/// collection from the levels a failed attempt abandoned. On success (or
/// sabotage-abandonment) settles the unit's `pending` obligation.
fn dispatch_unit(
    task: &mut dyn CoreTask,
    ctx: &mut CoreCtx<'_>,
    job: &JobState,
    ext: Option<&ExternalState>,
    prefix: &[u64],
    word: u64,
    exclusions: ReplayExclusions,
) -> UnitFate {
    // ordering: Relaxed — kill scheduling reads this as a heuristic
    // threshold; exactness of *when* the threshold is observed is not
    // required, only that the counter never loses increments (RMW).
    ctx.fcx
        .ledger
        .units_dispatched
        .fetch_add(1, Ordering::Relaxed);
    let budget = ctx.fcx.retry_budget();
    let mut excl = exclusions;
    let mut attempt: u32 = 0;
    ctx.health().set_inflight(prefix, word);
    loop {
        ctx.exclusions = std::mem::take(&mut excl);
        let depth0 = ctx.slot.depth();
        let start = ctx.now_ns();
        ctx.health().beat(start);
        ctx.recorder
            .record(start, EventKind::TaskClaim, prefix.len() as u64, word);
        // AssertUnwindSafe: on unwind the abandoned levels are popped and
        // retired below and `abort_unit` discards the task's staged state,
        // restoring every invariant a retry relies on.
        let result = catch_unwind(AssertUnwindSafe(|| task.process_unit(ctx, prefix, word)));
        excl = std::mem::take(&mut ctx.exclusions);
        match result {
            Ok(()) => {
                let end = ctx.now_ns();
                let service = end.saturating_sub(start);
                ctx.recorder
                    .record(end, EventKind::UnitDone, prefix.len() as u64, service);
                ctx.recorder.record_service(service);
                ctx.stats.record_segment(start, end);
                job.sub_pending();
                ctx.health().clear_inflight();
                if prefix.is_empty() {
                    if let Some(e) = ext {
                        e.hooks.root_done(word);
                    }
                }
                return UnitFate::Done;
            }
            Err(payload) => {
                ctx.stats.record_segment(start, ctx.now_ns());
                if payload.downcast_ref::<WorkerKilled>().is_some() {
                    // Fail-stop: leave the slot's levels and the in-flight
                    // record in place — reconciliation is the watchdog's
                    // job — but hand it the exclusions earlier attempts
                    // collected.
                    ctx.health().stash_exclusions(excl);
                    return UnitFate::Died;
                }
                // Retryable failure: retire the levels this attempt left
                // behind, folding thief-claimed words into the exclusion
                // set so the re-execution skips work already committed
                // elsewhere.
                while ctx.slot.depth() > depth0 {
                    #[expect(
                        clippy::expect_used,
                        reason = "depth > depth0 is the loop condition; pop_top cannot miss"
                    )]
                    let lvl = ctx.slot.pop_top().expect("depth checked above");
                    let stolen = lvl.retire_collect();
                    if !stolen.is_empty() {
                        excl.entry(lvl.prefix.clone()).or_default().extend(stolen);
                    }
                }
                task.abort_unit(ctx);
                if ctx.fcx.sabotaged() {
                    // Deliberately broken recovery (chaos-gate self-test):
                    // account the unit so the job terminates, but never
                    // re-execute it.
                    // ordering: Relaxed — diagnostic counter, read after join.
                    ctx.fcx.ledger.units_lost.fetch_add(1, Ordering::Relaxed);
                    job.sub_pending();
                    ctx.health().clear_inflight();
                    return UnitFate::Done;
                }
                if attempt >= budget {
                    // Budget exhausted: a persistent failure fails the job.
                    fail_job(job, payload, ctx.registries);
                    ctx.health().clear_inflight();
                    return UnitFate::Done;
                }
                attempt += 1;
                // ordering: Relaxed — diagnostic counter, read after join.
                ctx.fcx.ledger.units_retried.fetch_add(1, Ordering::Relaxed);
                let backoff_us = (50u64 << attempt.min(10)).min(5_000);
                let t = ctx.now_ns();
                ctx.recorder
                    .record(t, EventKind::UnitRetry, attempt as u64, backoff_us);
                std::thread::sleep(Duration::from_micros(backoff_us));
            }
        }
    }
}

/// Fails the job with a unit's panic ([`JobState::fail`]): `done` stops
/// the thieves, and claiming away every core's unclaimed root words stops
/// the cores still draining their partitions after their current unit.
#[cold]
fn fail_job(job: &JobState, payload: Box<dyn Any + Send>, registries: &[Arc<WorkerRegistry>]) {
    job.fail(payload);
    for registry in registries {
        for slot in &registry.slots {
            if let Some(root) = slot.find_stealable().filter(|l| l.counted) {
                while root.queue.claim().is_some() {}
            }
        }
    }
}

/// Runs `spec` on a simulated cluster shaped by `config`; blocks until the
/// job completes and returns the per-core report.
pub fn run_job(spec: &dyn JobSpec, config: &ClusterConfig) -> JobReport {
    run_job_with(spec, config, None)
}

/// [`run_job`] with an optional external work-stealing source attached
/// (the cross-process substrate of `fractal-net`).
///
/// With hooks present the job is created with one extra `pending`
/// obligation — the *termination hold* — so local completion cannot flip
/// `done` while the external coordinator may still deliver stolen units or
/// recovery work. Idle cores consult [`ExternalHooks::pull`] after local
/// stealing fails; the first [`ExternalPull::Drained`] releases the hold
/// exactly once, after which the job drains any remaining local work and
/// terminates normally. Without hooks this is exactly `run_job` — the
/// external machinery costs nothing when unconfigured.
///
/// # Panics
///
/// With the panic of a unit that exhausted its retries, once every core
/// has stopped.
pub fn run_job_with(
    spec: &dyn JobSpec,
    config: &ClusterConfig,
    hooks: Option<Arc<dyn ExternalHooks>>,
) -> JobReport {
    let roots = spec.roots();
    let num_workers = config.num_workers.max(1);
    let cores_per_worker = config.cores_per_worker.max(1);
    let total_cores = num_workers * cores_per_worker;

    let hold = hooks.is_some() as usize;
    let job = Arc::new(JobState::new(roots.len() + hold));
    let fcx = FaultCtx::new(config.fault.clone(), num_workers, cores_per_worker);
    if fcx.injector.is_some() {
        install_quiet_panic_hook();
    }
    let registries: Vec<Arc<WorkerRegistry>> = (0..num_workers)
        .map(|_| Arc::new(WorkerRegistry::new(cores_per_worker)))
        .collect();
    let ext = hooks.map(|h| {
        h.job_started(ExternalJobHandle {
            registries: registries.clone(),
            job: job.clone(),
        });
        ExternalState {
            hooks: h,
            hold_released: AtomicBool::new(false),
        }
    });
    let ext = ext.as_ref();

    // Strided root partitions by global core index ("determined on-the-fly
    // using its unique core identifier").
    let mut partitions: Vec<Vec<u64>> = vec![Vec::new(); total_cores];
    for (i, &w) in roots.iter().enumerate() {
        partitions[i % total_cores].push(w);
    }

    // Per-worker steal-request channels.
    let mut steal_rx = Vec::new();
    let mut steal_tx = Vec::new();
    for _ in 0..num_workers {
        let (tx, rx) = unbounded::<StealRequest>();
        steal_tx.push(tx);
        steal_rx.push(rx);
    }
    let channels = WorkerChannels { steal_tx };
    let server_stats: Vec<ServerStats> = (0..num_workers).map(|_| ServerStats::new()).collect();

    let t0 = Instant::now();
    let mut core_stats: Vec<(GlobalCoreId, CoreStats)> = Vec::with_capacity(total_cores);
    let mut core_traces: Vec<CoreTrace> = Vec::with_capacity(total_cores);

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(total_cores);
        for w in 0..num_workers {
            for c in 0..cores_per_worker {
                let id = GlobalCoreId { worker: w, core: c };
                let my_roots = std::mem::take(&mut partitions[w * cores_per_worker + c]);
                let job = &job;
                let registries = &registries;
                let channels = &channels;
                let fcx = &fcx;
                handles.push((
                    id,
                    s.spawn(move || {
                        core_main(
                            spec, id, my_roots, job, ext, registries, channels, config, t0, fcx,
                        )
                    }),
                ));
            }
        }
        // Steal servers, one per worker, only when external WS is on.
        let mut server_handles = Vec::new();
        if config.ws_mode.external() && num_workers > 1 {
            for (w, rx) in steal_rx.into_iter().enumerate() {
                let registry = registries[w].clone();
                let job = &job;
                let latency = config.net_latency_us;
                let stats = &server_stats[w];
                let fcx = &fcx;
                server_handles.push(
                    s.spawn(move || steal_server(&registry, w, job, &rx, latency, stats, fcx)),
                );
            }
        }
        // The watchdog runs only under a fault plan: fault-free jobs have
        // no fail-stop to detect and pay nothing.
        let watchdog = fcx
            .injector
            .is_some()
            .then(|| s.spawn(|| watchdog_loop(&fcx, &registries, &job, t0)));
        for (id, h) in handles {
            #[expect(
                clippy::expect_used,
                reason = "a core-thread panic is a runtime bug (injected unit panics are caught \
                          per unit, not here); propagating it is the fail-loud path"
            )]
            let (stats, trace) = h.join().expect("core thread panicked");
            core_stats.push((id, stats));
            core_traces.push(trace);
        }
        for h in server_handles {
            #[expect(
                clippy::expect_used,
                reason = "steal servers only panic on runtime bugs; join propagates them"
            )]
            h.join().expect("steal server panicked");
        }
        if let Some(h) = watchdog {
            #[expect(
                clippy::expect_used,
                reason = "the watchdog likewise: propagate, never swallow"
            )]
            h.join().expect("watchdog panicked");
        }
    });

    if let Some(payload) = job.failure.lock().take() {
        resume_unwind(payload);
    }
    debug_assert!(job.done(), "job must be done after all cores joined");
    debug_assert_eq!(job.pending(), 0, "pending leak: {}", job.pending());

    // ordering: Relaxed — the servers incrementing these counters have
    // joined above, which orders their final values before these reads.
    let sum = |f: fn(&ServerStats) -> u64| server_stats.iter().map(f).sum();
    JobReport {
        elapsed: t0.elapsed(),
        cores: core_stats,
        bytes_served: sum(|s| s.bytes_served.load(Ordering::Relaxed)),
        steal_requests: sum(|s| s.requests.load(Ordering::Relaxed)),
        steal_hits: sum(|s| s.hits.load(Ordering::Relaxed)),
        faults: fcx.ledger.snapshot(),
        planner: Default::default(),
        trace: if config.trace.enabled {
            Some(TraceDump { cores: core_traces })
        } else {
            None
        },
        workers: num_workers,
    }
}

/// The supervisor thread: polls heartbeats, trips on staleness, and
/// reconciles fail-stopped cores.
///
/// Detection is two-phase (see `fault` module docs): heartbeat staleness
/// only *counts a trip* — a merely-stuck core (e.g. a stalled one) must
/// not be destructively re-owned while it may still resume. Destructive
/// reconciliation happens only once the core's own fail-stop flag
/// confirms death, after which [`reconcile_core`] turns its unclaimed and
/// in-flight work into recovery units.
fn watchdog_loop(fcx: &FaultCtx, registries: &[Arc<WorkerRegistry>], job: &JobState, t0: Instant) {
    let timeout_ns = fcx.heartbeat_timeout_ns();
    let poll = Duration::from_millis(fcx.watchdog_poll_ms().max(1));
    let cpw = fcx.health.cores_per_worker.max(1);
    let mut tripped = vec![false; fcx.health.cores.len()];
    while !job.done() {
        std::thread::sleep(poll);
        let now = t0.elapsed().as_nanos() as u64;
        for (gi, health) in fcx.health.cores.iter().enumerate() {
            // ordering: SeqCst — reconciled is the watchdog/recovery handshake; a
            // missed edge here would double-recover a core's obligations.
            if health.reconciled.load(Ordering::SeqCst) {
                continue;
            }
            // ordering: Relaxed — staleness detection is a timing
            // heuristic; a stale read delays a trip by one poll at most,
            // and destructive reconciliation is separately gated on the
            // SeqCst fail-stop flag.
            let beat = health.beat_ns.load(Ordering::Relaxed);
            let stale = beat != 0 && now.saturating_sub(beat) > timeout_ns;
            let dead = health.is_dead();
            if (stale || dead) && !tripped[gi] {
                tripped[gi] = true;
                // ordering: Relaxed — diagnostic counter, no data guarded.
                fcx.ledger.watchdog_trips.fetch_add(1, Ordering::Relaxed);
                // Capture the core's last trace records while it is
                // merely suspected: a stalled (not dead) core keeps its
                // ring private until join, but the tap stays readable.
                let drained = health.drain_tap_diagnostic(16);
                // ordering: Relaxed — diagnostic counter, no data guarded.
                fcx.ledger.tap_drained.fetch_add(drained, Ordering::Relaxed);
            }
            if dead {
                let slot = &registries[gi / cpw].slots[gi % cpw];
                reconcile_core(fcx, slot, health, job);
                health.reconciled.store(true, Ordering::SeqCst);
                if let Some(inj) = &fcx.injector {
                    if inj.kill_fired() && inj.targets_worker(gi / cpw) {
                        let killed_at = inj.killed_at_ns.load(Ordering::SeqCst);
                        let end = t0.elapsed().as_nanos() as u64;
                        // ordering: Relaxed — diagnostic counter.
                        fcx.ledger
                            .recovery_ns
                            .fetch_add(end.saturating_sub(killed_at), Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Turns a confirmed-dead core's remaining work into recovery units:
///
/// * every unclaimed word of its **pre-counted** levels (the root
///   partition) becomes a bare recovery unit — each already owns one
///   `pending` obligation;
/// * its **uncounted** levels belong to the in-flight unit's subtree:
///   their thief-claimed words become replay exclusions, their unclaimed
///   words are re-enumerated by the in-flight unit's re-execution;
/// * the in-flight unit itself (if any) becomes a recovery unit carrying
///   those exclusions plus whatever earlier failed attempts stashed.
///
/// All levels are retired first, fencing concurrent thieves, so the
/// exclusion sets are exact. Under a sabotaged plan the obligations are
/// settled without re-execution (guaranteed-wrong results, but guaranteed
/// termination — the chaos gate's self-test relies on both).
fn reconcile_core(
    fcx: &FaultCtx,
    slot: &CoreSlot,
    health: &crate::fault::CoreHealth,
    job: &JobState,
) {
    let mut exclusions = health.take_exclusions();
    for lvl in slot.drain_levels() {
        let stolen = lvl.retire_collect();
        if lvl.counted {
            while let Some(w) = lvl.queue.claim() {
                if fcx.sabotaged() {
                    // ordering: Relaxed — diagnostic counter.
                    fcx.ledger.units_lost.fetch_add(1, Ordering::Relaxed);
                    job.sub_pending();
                } else {
                    fcx.recovery.push(RecoveryUnit::bare(lvl.prefix.clone(), w));
                }
            }
            // Thief-claimed words of a counted level carry their own
            // obligation with the thief — nothing to reconcile.
        } else if !stolen.is_empty() {
            exclusions
                .entry(lvl.prefix.clone())
                .or_default()
                .extend(stolen);
        }
    }
    if let Some((prefix, word)) = health.take_inflight() {
        if fcx.sabotaged() {
            // ordering: Relaxed — diagnostic counter.
            fcx.ledger.units_lost.fetch_add(1, Ordering::Relaxed);
            job.sub_pending();
        } else {
            fcx.recovery.push(RecoveryUnit {
                prefix,
                word,
                exclusions,
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn core_main(
    spec: &dyn JobSpec,
    id: GlobalCoreId,
    my_roots: Vec<u64>,
    job: &JobState,
    ext: Option<&ExternalState>,
    registries: &[Arc<WorkerRegistry>],
    channels: &WorkerChannels,
    config: &ClusterConfig,
    t0: Instant,
    fcx: &FaultCtx,
) -> (CoreStats, CoreTrace) {
    let slot = &registries[id.worker].slots[id.core];
    let mut ctx = CoreCtx {
        id,
        slot,
        t0,
        fcx,
        registries,
        exclusions: ReplayExclusions::new(),
        stats: CoreStats::default(),
        recorder: Recorder::new(config.trace),
    };
    if let Some(tap) = ctx.recorder.tap() {
        // Hand the watchdog a live view of this core's trace so a wedged
        // core's last events are drainable without joining it.
        ctx.health().publish_tap(tap);
    }
    ctx.health().beat(ctx.now_ns().max(1));
    let mut task = spec.make_core_task(id);
    let mut died = false;

    // Phase 1: drain the pre-counted root partition.
    if !my_roots.is_empty() {
        let root = Arc::new(LevelQueue::new(Vec::new(), my_roots, true));
        slot.push(root.clone());
        loop {
            if ctx.should_die_now() {
                ctx.record_fail_stop();
                died = true;
                break;
            }
            let Some(w) = root.queue.claim() else { break };
            match dispatch_unit(
                &mut *task,
                &mut ctx,
                job,
                ext,
                &[],
                w,
                ReplayExclusions::new(),
            ) {
                UnitFate::Done => {}
                UnitFate::Died => {
                    died = true;
                    break;
                }
            }
        }
        // On death the root level stays registered: its unclaimed words
        // are the watchdog's to re-own.
        if !died {
            slot.pop();
        }
    }

    // Phase 2: steal (and drain recovery units) until the whole job is
    // done. Under a fault plan this loop runs even with stealing disabled:
    // recovery units need consumers. With external hooks it always runs —
    // the termination hold is released from inside it.
    if !died && (config.ws_mode != WsMode::Disabled || fcx.injector.is_some() || ext.is_some()) {
        died = steal_loop(&mut *task, &mut ctx, job, ext, registries, channels, config);
    }

    if died {
        // Fail-stop: publish death for the watchdog (which owns all
        // reconciliation), then exit the thread so the scoped join works.
        // `finish` still runs — by the durable-commit model, state
        // committed by completed units survives.
        ctx.health().mark_dead();
    }
    task.finish(&mut ctx);
    (ctx.stats, ctx.recorder.into_core_trace(id))
}

/// The thief loop of one idle core. Priority order: recovery units (lost
/// work is the oldest in the job), then internal steals, then simulated
/// external steals, then the cross-process external source (if hooked).
/// Returns `true` if the core fail-stopped.
fn steal_loop(
    task: &mut dyn CoreTask,
    ctx: &mut CoreCtx<'_>,
    job: &JobState,
    ext: Option<&ExternalState>,
    registries: &[Arc<WorkerRegistry>],
    channels: &WorkerChannels,
    config: &ClusterConfig,
) -> bool {
    let id = ctx.core_id();
    let num_workers = registries.len();
    loop {
        if job.done() {
            return false;
        }
        ctx.health().beat(ctx.now_ns());
        if ctx.should_die_now() {
            ctx.record_fail_stop();
            return true;
        }
        if let Some(ru) = ctx.fcx.recovery.pop() {
            // ordering: Relaxed — diagnostic counter, read after join.
            ctx.fcx
                .ledger
                .units_reexecuted
                .fetch_add(1, Ordering::Relaxed);
            let t = ctx.now_ns();
            ctx.recorder
                .record(t, EventKind::UnitReexec, ru.prefix.len() as u64, ru.word);
            match dispatch_unit(task, ctx, job, ext, &ru.prefix, ru.word, ru.exclusions) {
                UnitFate::Done => continue,
                UnitFate::Died => return true,
            }
        }
        let steal_start = ctx.now_ns();
        let mut stolen: Option<(StolenUnit, bool)> = None;

        if config.ws_mode.internal() {
            if let Some((victim, u)) =
                steal_from_registry(&registries[id.worker], Some(id.core), job)
            {
                if ctx.recorder.is_enabled() {
                    let t = ctx.now_ns();
                    ctx.recorder
                        .record(t, EventKind::InternalSteal, victim as u64, u.word);
                    ctx.recorder
                        .record_steal_latency(t.saturating_sub(steal_start));
                }
                stolen = Some((u, false));
            }
        }
        // Internal scans are pure steal work; external requests are mostly
        // *blocked waiting* for the server's reply — idle time, not
        // overhead — so only their active portion is charged below.
        ctx.stats.steal_ns += ctx.now_ns().saturating_sub(steal_start);
        if stolen.is_none() && config.ws_mode.external() && num_workers > 1 {
            let (unit, active_ns) = steal_external(ctx, job, channels, num_workers);
            ctx.stats.steal_ns += active_ns;
            if unit.is_some() && ctx.recorder.is_enabled() {
                let t = ctx.now_ns();
                ctx.recorder
                    .record_steal_latency(t.saturating_sub(steal_start));
            }
            stolen = unit.map(|u| (u, true));
        }
        // Cross-process source: consulted last — remote units pay real
        // serialization and a network round trip, so local work always
        // wins. The executor inflates `pending` here (the remote
        // coordinator holds the word's obligation until we take it).
        if stolen.is_none() {
            if let Some(e) = ext {
                match e.hooks.pull() {
                    ExternalPull::Unit { unit, wire_bytes } => {
                        job.add_pending(1);
                        ctx.stats.net_units += 1;
                        ctx.stats.bytes_received += wire_bytes;
                        if ctx.recorder.is_enabled() {
                            let t = ctx.now_ns();
                            ctx.recorder
                                .record(t, EventKind::ExternalSteal, u64::MAX, wire_bytes);
                            ctx.recorder
                                .record_steal_latency(t.saturating_sub(steal_start));
                        }
                        stolen = Some((unit, true));
                    }
                    ExternalPull::Empty => {}
                    ExternalPull::Drained => {
                        // ordering: SeqCst — hold_released must flip exactly once across
                        // executor and watchdog threads; the swap's total order guarantees a
                        // single sub_pending.
                        if !e.hold_released.swap(true, Ordering::SeqCst) {
                            job.sub_pending();
                        }
                    }
                }
            }
        }

        match stolen {
            Some((unit, external)) => {
                if external {
                    ctx.stats.external_steals += 1;
                } else {
                    ctx.stats.internal_steals += 1;
                }
                match dispatch_unit(
                    task,
                    ctx,
                    job,
                    ext,
                    &unit.prefix,
                    unit.word,
                    ReplayExclusions::new(),
                ) {
                    UnitFate::Done => {}
                    UnitFate::Died => return true,
                }
            }
            None => {
                ctx.stats.failed_steal_rounds += 1;
                if job.done() {
                    return false;
                }
                std::thread::park_timeout(Duration::from_micros(50));
            }
        }
    }
}

/// One round of external steal attempts: ask every other worker once,
/// round-robin starting after our own. Returns the unit (if any) plus the
/// *active* nanoseconds spent (send/decode — excluding the blocked wait
/// for the server's reply, which is idle time).
///
/// Replies are checksummed and acked: a clean decode is acked `true`
/// (from then on this core's supervision owns the unit), a corrupt
/// payload is nacked so the serving worker requeues the original for
/// recovery — the corruption costs a round-trip, never a subgraph.
fn steal_external(
    ctx: &mut CoreCtx<'_>,
    job: &JobState,
    channels: &WorkerChannels,
    num_workers: usize,
) -> (Option<StolenUnit>, u64) {
    let my_worker = ctx.core_id().worker;
    let mut active_ns = 0u64;
    for i in 1..num_workers {
        if job.done() {
            return (None, active_ns);
        }
        let victim = (my_worker + i) % num_workers;
        let t_send = ctx.now_ns();
        let (reply_tx, reply_rx) = bounded(1);
        let sent = channels.steal_tx[victim]
            .send(StealRequest { reply: reply_tx })
            .is_ok();
        active_ns += ctx.now_ns().saturating_sub(t_send);
        if !sent {
            continue;
        }
        // The server always replies unless the job finished; on `done` any
        // in-flight reply is guaranteed to be `None` (claims cannot succeed
        // once pending is zero), so abandoning is safe. A dropped request
        // (fault injection or server exit) surfaces as a disconnect —
        // move on to the next victim rather than waiting out the timeout.
        loop {
            match reply_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(Some(reply)) => {
                    let t_decode = ctx.now_ns();
                    if ctx.recorder.is_enabled() {
                        ctx.recorder.record(
                            t_decode,
                            EventKind::StealRoundTrip,
                            victim as u64,
                            t_decode.saturating_sub(t_send),
                        );
                        ctx.recorder.record(
                            t_decode,
                            EventKind::ExternalSteal,
                            victim as u64,
                            reply.bytes.len() as u64,
                        );
                    }
                    ctx.stats.bytes_received += reply.bytes.len() as u64;
                    match decode_unit(&reply.bytes) {
                        Ok(unit) => {
                            let _ = reply.ack.send(true);
                            active_ns += ctx.now_ns().saturating_sub(t_decode);
                            return (Some(unit), active_ns);
                        }
                        Err(_) => {
                            // Corrupt in flight: nack so the server
                            // requeues the original, and try elsewhere.
                            let _ = reply.ack.send(false);
                            active_ns += ctx.now_ns().saturating_sub(t_decode);
                            break;
                        }
                    }
                }
                Ok(None) => {
                    if ctx.recorder.is_enabled() {
                        let t = ctx.now_ns();
                        ctx.recorder.record(
                            t,
                            EventKind::StealRoundTrip,
                            victim as u64,
                            t.saturating_sub(t_send),
                        );
                    }
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    if job.done() {
                        return (None, active_ns);
                    }
                }
            }
        }
    }
    (None, active_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::sync::AtomicU64;

    #[test]
    fn job_state_counts_to_done() {
        let j = JobState::new(2);
        assert!(!j.done());
        j.sub_pending();
        assert!(!j.done());
        j.add_pending(1); // a steal in flight
        j.sub_pending();
        assert!(!j.done());
        j.sub_pending();
        assert!(j.done());
    }

    #[test]
    fn empty_job_is_immediately_done() {
        let j = JobState::new(0);
        assert!(j.done());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "sub_pending underflow"))]
    fn sub_pending_underflow_is_caught_or_saturated() {
        let j = JobState::new(1);
        j.sub_pending();
        j.sub_pending(); // double-completion bug
                         // Release builds saturate instead of wrapping negative.
        assert_eq!(j.pending(), 0);
        assert!(j.done());
    }

    /// Satellite stress test: 8 threads hammer claim/steal/complete
    /// through the counter; the invariant (never negative, done exactly at
    /// zero) must hold under full contention.
    #[test]
    fn pending_counter_stress_8_threads() {
        const THREADS: usize = 8;
        const UNITS_PER_THREAD: usize = 2_000;
        let job = JobState::new(THREADS * UNITS_PER_THREAD);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for i in 0..UNITS_PER_THREAD {
                        // Every third unit simulates an uncounted steal:
                        // inflate, then complete both the steal and the
                        // covering unit.
                        if i % 3 == 0 {
                            job.add_pending(1);
                            assert!(job.pending() > 0);
                            job.sub_pending();
                        }
                        assert!(!job.done(), "done flipped early");
                        job.sub_pending();
                    }
                });
            }
        });
        assert!(job.done());
        assert_eq!(job.pending(), 0);
    }

    /// A trivial job: each root word contributes `word` to a shared sum.
    struct SumSpec {
        roots: Vec<u64>,
        total: AtomicU64,
    }
    struct SumTask<'a> {
        spec: &'a SumSpec,
        local: u64,
    }
    impl JobSpec for SumSpec {
        fn roots(&self) -> Vec<u64> {
            self.roots.clone()
        }
        fn make_core_task<'s>(&'s self, _id: GlobalCoreId) -> Box<dyn CoreTask + 's> {
            Box::new(SumTask {
                spec: self,
                local: 0,
            })
        }
    }
    impl CoreTask for SumTask<'_> {
        fn process_unit(&mut self, _ctx: &mut CoreCtx<'_>, prefix: &[u64], word: u64) {
            assert!(prefix.is_empty());
            self.local += word;
        }
        fn finish(&mut self, _ctx: &mut CoreCtx<'_>) {
            self.spec.total.fetch_add(self.local, Ordering::SeqCst);
        }
    }

    #[test]
    fn flat_job_all_modes_and_shapes() {
        for mode in [
            WsMode::Disabled,
            WsMode::InternalOnly,
            WsMode::ExternalOnly,
            WsMode::Both,
        ] {
            for (w, c) in [(1, 1), (1, 3), (2, 2), (3, 1)] {
                let spec = SumSpec {
                    roots: (1..=100).collect(),
                    total: AtomicU64::new(0),
                };
                let report = run_job(
                    &spec,
                    &ClusterConfig::local(w, c).with_ws(mode).with_latency_us(0),
                );
                assert_eq!(
                    spec.total.load(Ordering::SeqCst),
                    5050,
                    "mode {mode:?} shape {w}x{c}"
                );
                assert_eq!(report.cores.len(), w * c);
                let units: u64 = report.cores.iter().map(|(_, s)| s.units).sum();
                assert_eq!(units, 100);
                // Fault-free runs must report all-zero recovery metrics.
                assert_eq!(report.faults, crate::fault::FaultStats::default());
            }
        }
    }

    /// A two-level job: each root spawns an inner level of `fanout`
    /// sub-words, with an artificial skew (all roots land on core 0's
    /// partition modulo striding) to force stealing. Fully re-executable:
    /// `process_unit` stages into `staged` and commits on return, so the
    /// supervision tests below can panic/kill it arbitrarily.
    struct TreeSpec {
        roots: Vec<u64>,
        fanout: u64,
        leaf_work_ns: u64,
        total: AtomicU64,
    }
    struct TreeTask<'a> {
        spec: &'a TreeSpec,
        local: u64,
        staged: u64,
    }
    impl JobSpec for TreeSpec {
        fn roots(&self) -> Vec<u64> {
            self.roots.clone()
        }
        fn make_core_task<'s>(&'s self, _id: GlobalCoreId) -> Box<dyn CoreTask + 's> {
            Box::new(TreeTask {
                spec: self,
                local: 0,
                staged: 0,
            })
        }
    }
    impl CoreTask for TreeTask<'_> {
        fn process_unit(&mut self, ctx: &mut CoreCtx<'_>, prefix: &[u64], word: u64) {
            self.staged = 0;
            if !prefix.is_empty() {
                // Leaf unit (stolen from an inner level).
                crate::steal::spin_latency(self.spec.leaf_work_ns / 1000);
                self.staged += word;
            } else {
                // Root: register an inner level and drain it.
                let exts: Vec<u64> = (0..self.spec.fanout).collect();
                let words = [word];
                let level = ctx.push_level(&words, exts);
                while let Some(w) = level.queue.claim() {
                    crate::steal::spin_latency(self.spec.leaf_work_ns / 1000);
                    self.staged += w;
                }
                ctx.pop_level();
            }
            // Commit: the unit completed.
            self.local += self.staged;
            self.staged = 0;
        }
        fn abort_unit(&mut self, _ctx: &mut CoreCtx<'_>) {
            self.staged = 0;
        }
        fn finish(&mut self, _ctx: &mut CoreCtx<'_>) {
            self.spec.total.fetch_add(self.local, Ordering::SeqCst);
        }
    }

    #[test]
    fn nested_job_with_stealing_is_exact() {
        let fanout = 128u64;
        let expected_per_root: u64 = (0..fanout).sum();
        for mode in [WsMode::InternalOnly, WsMode::ExternalOnly, WsMode::Both] {
            let spec = TreeSpec {
                roots: vec![1, 2, 3],
                fanout,
                leaf_work_ns: 150_000,
                total: AtomicU64::new(0),
            };
            let report = run_job(
                &spec,
                &ClusterConfig::local(2, 2).with_ws(mode).with_latency_us(5),
            );
            assert_eq!(
                spec.total.load(Ordering::SeqCst),
                3 * expected_per_root,
                "mode {mode:?}"
            );
            let (int_steals, ext_steals) = report.steals();
            match mode {
                WsMode::InternalOnly => assert_eq!(ext_steals, 0),
                WsMode::ExternalOnly => assert_eq!(int_steals, 0),
                _ => {}
            }
            // With 3 skewed roots on 4 cores and large fanout, someone must
            // have stolen.
            assert!(int_steals + ext_steals > 0, "no steals in mode {mode:?}");
        }
    }

    #[test]
    fn disabled_mode_same_result_no_steals() {
        let spec = TreeSpec {
            roots: vec![5, 6],
            fanout: 16,
            leaf_work_ns: 1000,
            total: AtomicU64::new(0),
        };
        let report = run_job(&spec, &ClusterConfig::local(2, 2).with_ws(WsMode::Disabled));
        assert_eq!(spec.total.load(Ordering::SeqCst), 2 * (0..16).sum::<u64>());
        assert_eq!(report.steals(), (0, 0));
    }

    #[test]
    fn report_has_busy_segments() {
        let spec = SumSpec {
            roots: (0..50).collect(),
            total: AtomicU64::new(0),
        };
        let report = run_job(&spec, &ClusterConfig::local(1, 2));
        assert!(report.total_busy().as_nanos() > 0);
        let tl = report.utilization_timeline(4);
        assert_eq!(tl.len(), 4);
        // Tracing is opt-in; the default config must not pay for a dump.
        assert!(report.trace.is_none());
    }

    fn tree_spec() -> TreeSpec {
        TreeSpec {
            roots: vec![1, 2, 3, 4, 5, 6],
            fanout: 64,
            leaf_work_ns: 60_000,
            total: AtomicU64::new(0),
        }
    }

    fn tree_expected(spec: &TreeSpec) -> u64 {
        spec.roots.len() as u64 * (0..spec.fanout).sum::<u64>()
    }

    #[test]
    fn unit_panics_are_retried_to_exact_results() {
        for seed in [1u64, 2, 3] {
            let spec = tree_spec();
            let expected = tree_expected(&spec);
            let report = run_job(
                &spec,
                &ClusterConfig::local(2, 2)
                    .with_latency_us(0)
                    .with_faults(FaultConfig::unit_panic(seed, 1)),
            );
            assert_eq!(
                spec.total.load(Ordering::SeqCst),
                expected,
                "seed {seed}: retried units must not double-count"
            );
            assert!(report.faults.faults_injected > 0, "seed {seed}");
            assert_eq!(report.faults.units_retried, report.faults.faults_injected);
            assert_eq!(report.faults.units_lost, 0);
        }
    }

    #[test]
    fn worker_kill_recovers_on_survivors() {
        for seed in [1u64, 7] {
            let spec = tree_spec();
            let expected = tree_expected(&spec);
            let report = run_job(
                &spec,
                &ClusterConfig::local(2, 2)
                    .with_latency_us(0)
                    .with_faults(FaultConfig::worker_kill(seed, 1).with_kill_after_units(1)),
            );
            assert_eq!(
                spec.total.load(Ordering::SeqCst),
                expected,
                "seed {seed}: survivors must recover the dead worker's partition exactly"
            );
            assert_eq!(report.faults.faults_injected, 1);
            assert!(report.faults.watchdog_trips > 0, "death must be detected");
            assert!(report.faults.units_lost == 0);
            assert!(report.faults.recovery_ns > 0);
        }
    }

    #[test]
    fn watchdog_drains_dead_cores_tap() {
        use crate::trace::TraceConfig;
        let spec = tree_spec();
        let expected = tree_expected(&spec);
        let report = run_job(
            &spec,
            &ClusterConfig::local(2, 2)
                .with_latency_us(0)
                .with_trace(TraceConfig {
                    tap_capacity: 64,
                    ..TraceConfig::enabled()
                })
                .with_faults(FaultConfig::worker_kill(1, 1).with_kill_after_units(1)),
        );
        assert_eq!(spec.total.load(Ordering::SeqCst), expected);
        assert!(report.faults.watchdog_trips > 0, "death must be detected");
        // The tripped cores recorded events before dying, so the watchdog
        // must have captured their last words through the tap.
        assert!(
            report.faults.tap_drained > 0,
            "watchdog drained no tap records from the dead worker"
        );
    }

    #[test]
    fn no_tap_configured_means_no_tap_drained() {
        let spec = tree_spec();
        let report = run_job(
            &spec,
            &ClusterConfig::local(2, 2)
                .with_latency_us(0)
                .with_faults(FaultConfig::worker_kill(1, 1).with_kill_after_units(1)),
        );
        assert!(report.faults.watchdog_trips > 0);
        assert_eq!(report.faults.tap_drained, 0);
    }

    #[test]
    fn kill_with_stealing_disabled_still_recovers() {
        // Recovery units need consumers even when work stealing is off —
        // the steal loop must run in recovery-only mode.
        let spec = tree_spec();
        let expected = tree_expected(&spec);
        run_job(
            &spec,
            &ClusterConfig::local(2, 2)
                .with_ws(WsMode::Disabled)
                .with_faults(FaultConfig::worker_kill(3, 1).with_kill_after_units(1)),
        );
        assert_eq!(spec.total.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn stall_trips_watchdog_without_destruction() {
        let spec = tree_spec();
        let expected = tree_expected(&spec);
        let report = run_job(
            &spec,
            &ClusterConfig::local(1, 2)
                .with_latency_us(0)
                .with_faults(FaultConfig::stall(5, 0, 0, 100).with_heartbeat_timeout_ms(10)),
        );
        assert_eq!(spec.total.load(Ordering::SeqCst), expected);
        assert!(report.faults.watchdog_trips > 0, "stall must trip watchdog");
        // Stuck is not dead: nothing may be re-owned or re-executed.
        assert_eq!(report.faults.units_reexecuted, 0);
    }

    #[test]
    fn sabotaged_recovery_terminates_with_wrong_results() {
        // The chaos gate's self-test contract: with recovery deliberately
        // broken the job still terminates, but drops work — and says so.
        let spec = tree_spec();
        let expected = tree_expected(&spec);
        let report = run_job(
            &spec,
            &ClusterConfig::local(2, 2).with_latency_us(0).with_faults(
                FaultConfig::worker_kill(1, 1)
                    .with_kill_after_units(1)
                    .with_sabotaged_recovery(),
            ),
        );
        assert!(report.faults.units_lost > 0, "sabotage must drop units");
        assert!(
            spec.total.load(Ordering::SeqCst) < expected,
            "dropped units must be missing from the result"
        );
    }

    #[test]
    fn corrupt_steal_replies_are_detected_and_requeued() {
        for seed in [2u64, 9] {
            let spec = tree_spec();
            let expected = tree_expected(&spec);
            let report = run_job(
                &spec,
                &ClusterConfig::local(2, 2)
                    .with_latency_us(0)
                    .with_faults(FaultConfig::corrupt_unit(seed)),
            );
            assert_eq!(spec.total.load(Ordering::SeqCst), expected, "seed {seed}");
            if report.faults.faults_injected > 0 {
                assert!(
                    report.faults.units_reexecuted > 0,
                    "seed {seed}: corrupted units must be re-executed"
                );
            }
        }
    }

    #[test]
    fn dropped_steal_requests_do_not_hang_the_job() {
        let spec = tree_spec();
        let expected = tree_expected(&spec);
        run_job(
            &spec,
            &ClusterConfig::local(2, 2)
                .with_latency_us(0)
                .with_faults(FaultConfig::steal_drop(4)),
        );
        assert_eq!(spec.total.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn trace_records_claims_steals_and_round_trips() {
        use crate::trace::TraceConfig;
        let spec = TreeSpec {
            roots: vec![1, 2, 3],
            fanout: 64,
            leaf_work_ns: 100_000,
            total: AtomicU64::new(0),
        };
        let report = run_job(
            &spec,
            &ClusterConfig::local(2, 2)
                .with_latency_us(5)
                .with_trace(TraceConfig::enabled()),
        );
        let dump = report.trace.as_ref().expect("trace enabled");
        assert_eq!(dump.cores.len(), 4);

        // Every dispatched unit leaves a claim/done pair (ring is large
        // enough here that nothing is dropped).
        assert_eq!(dump.total_dropped(), 0);
        let units: u64 = report.cores.iter().map(|(_, s)| s.units).sum();
        let count_kind = |k: EventKind| -> u64 {
            dump.cores
                .iter()
                .flat_map(|c| c.events.iter())
                .filter(|e| e.kind == k)
                .count() as u64
        };
        assert_eq!(count_kind(EventKind::TaskClaim), units);
        assert_eq!(count_kind(EventKind::UnitDone), units);
        assert_eq!(count_kind(EventKind::LevelPush), 3); // one per root
        assert_eq!(count_kind(EventKind::LevelPop), 3);

        // Steal events and histograms line up with the counters.
        let (int_steals, ext_steals) = report.steals();
        assert_eq!(count_kind(EventKind::InternalSteal), int_steals);
        assert_eq!(count_kind(EventKind::ExternalSteal), ext_steals);
        let (steal_lat, service, _depth) = dump.merged_histograms();
        assert_eq!(steal_lat.count(), int_steals + ext_steals);
        assert_eq!(service.count(), units);
        if ext_steals > 0 {
            assert!(count_kind(EventKind::StealRoundTrip) >= ext_steals);
        }

        // The dump round-trips through its JSONL encoding.
        let mut buf = Vec::new();
        dump.write_jsonl(&mut buf).unwrap();
        let parsed = TraceDump::parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(
            parsed.cores.iter().map(|c| c.events.len()).sum::<usize>(),
            dump.num_events()
        );

        // And the metrics JSON carries the trace summary.
        let json = report.to_json(8);
        assert!(json.contains("\"trace\": {"));
        assert!(json.contains("\"steal_latency_ns\""));
    }

    #[test]
    fn trace_records_fault_events() {
        use crate::trace::TraceConfig;
        let spec = tree_spec();
        let report = run_job(
            &spec,
            &ClusterConfig::local(2, 2)
                .with_latency_us(0)
                .with_trace(TraceConfig::enabled())
                .with_faults(FaultConfig::unit_panic(1, 1)),
        );
        let dump = report.trace.as_ref().expect("trace enabled");
        let count_kind = |k: EventKind| -> u64 {
            dump.cores
                .iter()
                .flat_map(|c| c.events.iter())
                .filter(|e| e.kind == k)
                .count() as u64
        };
        assert_eq!(
            count_kind(EventKind::FaultInjected),
            report.faults.faults_injected
        );
        assert_eq!(
            count_kind(EventKind::UnitRetry),
            report.faults.units_retried
        );
    }
}
