//! Fault injection, supervision and recovery.
//!
//! Fractal's DFS, from-scratch step processing makes fault tolerance nearly
//! free (§7 of DESIGN.md): a dispatched unit carries no state besides its
//! `(prefix, word)` coordinates, so a lost unit can simply be re-executed
//! from scratch on any surviving core. This module provides the three
//! pieces that turn that observation into a tested property:
//!
//! 1. a deterministic, seedable **fault injector** ([`FaultConfig`] /
//!    [`FaultInjector`]) that can kill a simulated worker, panic a unit at a
//!    chosen enumeration depth, drop steal RPCs, stall a core, and
//!    corrupt an encoded stolen unit in flight;
//! 2. **supervision** state: per-core heartbeats and in-flight unit records
//!    ([`HealthBoard`]) feeding a watchdog that detects dead or stuck
//!    workers by timeout;
//! 3. **recovery** plumbing: the [`RecoveryQueue`] of units owed
//!    re-execution, the [`ReplayExclusions`] that keep re-execution
//!    exactly-once in the presence of work stealing, and the
//!    [`FaultLedger`] counters exported through `fractal-metrics/1`.
//!
//! ## Fault model
//!
//! Workers fail-stop: a killed worker stops claiming, stealing and serving
//! at its next injection point and never comes back (within one job). Unit
//! commits are *durable* — the engine stages each unit's side effects and
//! commits them atomically on unit completion (see `fractal-core`), so a
//! failure loses at most the in-flight unit of each dead core plus the
//! unclaimed words of its partitions, and re-execution can never
//! double-count. Detection is two-phase: the watchdog *suspects* a worker
//! via heartbeat staleness (and records a trip), then *confirms* via the
//! core's fail-stop flag before destructive recovery — the in-process
//! stand-in for a cluster manager's executor-lost notification, which
//! prevents a merely-stuck worker from being re-executed concurrently with
//! itself.

use crate::stats::{absorb_fields, field, Field, Merge};
use crate::steal::StolenUnit;
use crate::sync::Mutex;
use crate::sync::{AtomicBool, AtomicU64, Ordering};
use std::collections::{HashMap, VecDeque};

/// Panic payload of an injector-raised unit panic. Carried through
/// `catch_unwind` so the supervisor (and the quiet panic hook) can tell
/// injected faults from genuine bugs.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic {
    /// Enumeration depth the panic was raised at.
    pub depth: usize,
}

/// Panic payload used to unwind a core that was killed mid-unit. Not a
/// retryable fault: the supervisor translates it into core death.
#[derive(Debug, Clone, Copy)]
pub struct WorkerKilled;

/// Installs a process-wide panic hook that silences [`InjectedPanic`] and
/// [`WorkerKilled`] payloads (they are expected control flow under fault
/// injection) while delegating everything else to the previous hook.
/// Idempotent.
pub fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.downcast_ref::<InjectedPanic>().is_some()
                || payload.downcast_ref::<WorkerKilled>().is_some()
            {
                return;
            }
            previous(info);
        }));
    });
}

/// SplitMix64: tiny, high-quality mixing for deterministic injector
/// decisions (no external RNG dependency; `Math.random`-free by design).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Declarative fault plan for one job. All knobs are deterministic given
/// the seed and the sequence of injection-site visits; the seed offsets
/// *which* visits fire so different seeds exercise different interleavings.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed mixed into every injector decision.
    pub seed: u64,
    /// Worker index to kill (fail-stop), if any.
    pub kill_worker: Option<usize>,
    /// Kill fires once at least this many units have been dispatched
    /// globally (lets the victim make progress first, so the recovery path
    /// has both committed and unclaimed work to deal with).
    pub kill_after_units: u64,
    /// Panic units when they register a level at this depth.
    pub panic_depth: Option<usize>,
    /// Fire a panic on (seed-offset) every Nth matching level push.
    pub panic_period: u64,
    /// Total injected unit panics (keep below `retry_budget` per unit).
    pub panic_budget: u32,
    /// Drop (never answer) every Nth steal request, seed-offset.
    pub steal_drop_period: u64,
    /// Total steal requests to drop.
    pub steal_drop_budget: u32,
    /// Corrupt the encoded bytes of every Nth served unit, seed-offset.
    pub corrupt_period: u64,
    /// Total served units to corrupt.
    pub corrupt_budget: u32,
    /// Stall (sleep) this core once, to exercise the stuck-worker watchdog
    /// path without death: `(worker, core)`.
    pub stall_core: Option<(usize, usize)>,
    /// How long the stalled core sleeps, in milliseconds.
    pub stall_ms: u64,
    /// Per-unit retry budget of the supervisor (attempts = budget + 1).
    pub retry_budget: u32,
    /// Heartbeat staleness that trips the watchdog, in milliseconds.
    pub heartbeat_timeout_ms: u64,
    /// Watchdog poll interval, in milliseconds.
    pub watchdog_poll_ms: u64,
    /// Deliberately break recovery: lost and failed units are accounted
    /// (so the job still terminates) but never re-executed. Exists so the
    /// chaos CI gate can prove it would catch a recovery regression.
    pub sabotage_recovery: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            kill_worker: None,
            kill_after_units: 8,
            panic_depth: None,
            panic_period: 1,
            panic_budget: 2,
            steal_drop_period: 1,
            steal_drop_budget: 0,
            corrupt_period: 1,
            corrupt_budget: 0,
            stall_core: None,
            stall_ms: 0,
            retry_budget: 3,
            heartbeat_timeout_ms: 40,
            watchdog_poll_ms: 2,
            sabotage_recovery: false,
        }
    }
}

impl FaultConfig {
    /// A plan that kills `worker` after a few dispatched units.
    pub fn worker_kill(seed: u64, worker: usize) -> Self {
        FaultConfig {
            seed,
            kill_worker: Some(worker),
            ..Default::default()
        }
    }

    /// A plan that panics enumeration units at `depth` (twice by default —
    /// below the retry budget, so supervised re-execution succeeds).
    pub fn unit_panic(seed: u64, depth: usize) -> Self {
        FaultConfig {
            seed,
            panic_depth: Some(depth),
            panic_period: 2,
            panic_budget: 2,
            ..Default::default()
        }
    }

    /// A plan that drops a handful of steal requests on the floor.
    pub fn steal_drop(seed: u64) -> Self {
        FaultConfig {
            seed,
            steal_drop_period: 2,
            steal_drop_budget: 4,
            ..Default::default()
        }
    }

    /// A plan that corrupts a handful of encoded stolen units in flight.
    pub fn corrupt_unit(seed: u64) -> Self {
        FaultConfig {
            seed,
            corrupt_period: 1,
            corrupt_budget: 3,
            ..Default::default()
        }
    }

    /// A plan that stalls one core long enough to trip the watchdog
    /// without dying.
    pub fn stall(seed: u64, worker: usize, core: usize, ms: u64) -> Self {
        FaultConfig {
            seed,
            stall_core: Some((worker, core)),
            stall_ms: ms,
            ..Default::default()
        }
    }

    /// Returns the plan with the kill threshold moved: the target worker
    /// fail-stops once the global dispatched-unit count reaches `units`.
    /// Low thresholds kill the worker while it still owns unfinished
    /// root-partition work — the harshest recovery scenario.
    pub fn with_kill_after_units(mut self, units: u64) -> Self {
        self.kill_after_units = units;
        self
    }

    /// Returns the plan with recovery deliberately broken (chaos-gate
    /// self-test).
    pub fn with_sabotaged_recovery(mut self) -> Self {
        self.sabotage_recovery = true;
        self
    }

    /// Returns the plan with a different watchdog timeout.
    pub fn with_heartbeat_timeout_ms(mut self, ms: u64) -> Self {
        self.heartbeat_timeout_ms = ms;
        self
    }
}

/// Shared recovery counters of one job, exported as `fractal-metrics/1`
/// fields. All-zero on a fault-free run (the perf gate asserts this).
#[derive(Debug, Default)]
pub struct FaultLedger {
    /// Faults actually injected (fired, not just configured).
    pub faults_injected: AtomicU64,
    /// Supervised unit retries after a panic.
    pub units_retried: AtomicU64,
    /// Units re-executed from scratch off the recovery queue.
    pub units_reexecuted: AtomicU64,
    /// Watchdog heartbeat-staleness trips (dead or stuck cores).
    pub watchdog_trips: AtomicU64,
    /// Nanoseconds from fault detection to completed reconciliation,
    /// summed over recoveries.
    pub recovery_ns: AtomicU64,
    /// Units dropped without re-execution (nonzero only under sabotage).
    pub units_lost: AtomicU64,
    /// Units globally dispatched (drives kill scheduling).
    pub units_dispatched: AtomicU64,
    /// Trace-tap records the watchdog drained from tripped cores (the
    /// "last words" diagnostic; nonzero only with `tap_capacity > 0`).
    pub tap_drained: AtomicU64,
}

/// Immutable snapshot of a [`FaultLedger`], stored in the `JobReport`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults actually injected during the job.
    pub faults_injected: u64,
    /// Supervised unit retries after a panic.
    pub units_retried: u64,
    /// Units re-executed from scratch off the recovery queue.
    pub units_reexecuted: u64,
    /// Watchdog heartbeat-staleness trips.
    pub watchdog_trips: u64,
    /// Total detection-to-reconciliation nanoseconds.
    pub recovery_ns: u64,
    /// Units dropped without re-execution (sabotage only).
    pub units_lost: u64,
    /// Trace-tap records drained from tripped cores.
    pub tap_drained: u64,
    /// Jobs admitted by a `fractal serve` daemon (serve-path only: must
    /// stay zero in plain single-process and `submit` runs).
    pub jobs_admitted: u64,
    /// Jobs rejected at admission (queue full / tenant over quota).
    pub jobs_rejected: u64,
    /// Graph snapshots evicted from the serve daemon's LRU cache.
    pub snapshot_evictions: u64,
    /// Journal records replayed at daemon startup (serve-path only).
    pub journal_replayed: u64,
    /// Jobs re-admitted from the journal that resumed from at least one
    /// committed word-set instead of starting from scratch.
    pub resumed_jobs: u64,
    /// Link-degradation faults (delay/duplicate/reorder) injected at the
    /// frame transport layer. Zero unless a link-fault seed is armed.
    pub link_faults_injected: u64,
    /// Client-side reconnects while streaming job events (`--wait`).
    pub client_reconnects: u64,
}

impl FaultLedger {
    /// Snapshots the counters.
    pub fn snapshot(&self) -> FaultStats {
        FaultStats {
            // ordering: Relaxed — counters are monotonic diagnostics;
            // the snapshot is taken after the cores (and watchdog) have
            // joined, which already orders their final increments.
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            units_retried: self.units_retried.load(Ordering::Relaxed),
            units_reexecuted: self.units_reexecuted.load(Ordering::Relaxed),
            watchdog_trips: self.watchdog_trips.load(Ordering::Relaxed),
            recovery_ns: self.recovery_ns.load(Ordering::Relaxed),
            units_lost: self.units_lost.load(Ordering::Relaxed),
            tap_drained: self.tap_drained.load(Ordering::Relaxed),
            // The serve-path and link-fault counters are owned by the
            // `fractal serve` daemon and the transport wrappers, not the
            // in-process ledger: always zero here.
            ..FaultStats::default()
        }
    }
}

impl FaultStats {
    /// The counters, in struct (= blob) order.
    pub const FIELDS: &'static [Field<FaultStats>] = &[
        field!(faults_injected, Sum),
        field!(units_retried, Sum),
        field!(units_reexecuted, Sum),
        field!(watchdog_trips, Sum),
        field!(recovery_ns, Sum),
        field!(units_lost, Sum),
        field!(tap_drained, Sum),
        field!(jobs_admitted, Sum),
        field!(jobs_rejected, Sum),
        field!(snapshot_evictions, Sum),
        field!(journal_replayed, Sum),
        field!(resumed_jobs, Sum),
        field!(link_faults_injected, Sum),
        field!(client_reconnects, Sum),
    ];

    /// Adds another report's counters to `self`.
    pub fn absorb(&mut self, other: &FaultStats) {
        absorb_fields(Self::FIELDS, self, other);
    }

    /// Whether any recovery machinery ran.
    pub fn any_recovery(&self) -> bool {
        self.units_retried > 0 || self.units_reexecuted > 0 || self.watchdog_trips > 0
    }
}

/// A decrementing budget gated by a seeded period: the decision fires on
/// every `period`-th visit (offset by the seed) while budget remains.
#[derive(Debug)]
struct BudgetedSite {
    counter: AtomicU64,
    budget: AtomicU64,
    period: u64,
    salt: u64,
}

impl BudgetedSite {
    fn new(seed: u64, site: u64, period: u64, budget: u64) -> Self {
        BudgetedSite {
            counter: AtomicU64::new(0),
            budget: AtomicU64::new(budget),
            period: period.max(1),
            salt: splitmix64(seed ^ site),
        }
    }

    /// One visit; true when the fault fires.
    fn fire(&self) -> bool {
        // ordering: Relaxed throughout — injector decisions are local
        // heuristics: the visit counter needs only RMW atomicity, and
        // the budget CAS below is exact regardless of ordering (budget
        // can never go negative; a stale early-exit read merely skips a
        // visit that a concurrent visit already claimed).
        if self.budget.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        if !(n.wrapping_add(self.salt)).is_multiple_of(self.period) {
            return false;
        }
        // Claim one budget slot; losing a race means another visit fired.
        // ordering: Relaxed — see the note at the top of this fn.
        let mut cur = self.budget.load(Ordering::Relaxed);
        while cur > 0 {
            match self.budget.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
        false
    }
}

/// Deterministic link-degradation plan: seedable delay / duplicate /
/// reorder faults injected at the frame transport layer (the
/// `FrameSource`/`FrameSink` wrappers in `crates/net`). The decisions
/// live here, next to the other injectors, so chaos tooling shares one
/// seeding discipline; the transport wrappers only act on the verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaultConfig {
    /// Seed for every link-fault decision on this link.
    pub seed: u64,
    /// Delay every `delay_period`-th outgoing frame (0 disables).
    pub delay_period: u64,
    /// Microseconds each fired delay sleeps.
    pub delay_us: u64,
    /// Duplicate every `dup_period`-th outgoing frame (0 disables)…
    pub dup_period: u64,
    /// …up to this many times.
    pub dup_budget: u64,
    /// Hold back every `reorder_period`-th outgoing frame and emit it
    /// after its successor (0 disables)…
    pub reorder_period: u64,
    /// …up to this many times.
    pub reorder_budget: u64,
}

impl LinkFaultConfig {
    /// The standard flaky-link profile used by the chaos legs: frequent
    /// small delays plus bounded duplication and reordering.
    pub fn flaky(seed: u64) -> Self {
        LinkFaultConfig {
            seed,
            delay_period: 7,
            delay_us: 1_500,
            dup_period: 5,
            dup_budget: 64,
            reorder_period: 11,
            reorder_budget: 64,
        }
    }
}

/// What the transport wrapper should do with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultAction {
    /// Send normally.
    None,
    /// Sleep this many microseconds, then send.
    DelayUs(u64),
    /// Send the frame twice back to back.
    Duplicate,
    /// Hold the frame back and emit it after the next one.
    Reorder,
}

/// Live link-fault decisions for one transport link. At most one action
/// fires per frame (reorder wins over duplicate wins over delay) so a
/// single frame is never simultaneously held back and duplicated.
#[derive(Debug)]
pub struct LinkFaultInjector {
    /// The plan this injector executes.
    pub config: LinkFaultConfig,
    delay_site: BudgetedSite,
    dup_site: BudgetedSite,
    reorder_site: BudgetedSite,
    injected: AtomicU64,
}

impl LinkFaultInjector {
    /// Builds the injector for one link.
    pub fn new(config: LinkFaultConfig) -> Self {
        let s = config.seed;
        let armed = |period: u64, budget: u64| if period == 0 { 0 } else { budget };
        LinkFaultInjector {
            delay_site: BudgetedSite::new(
                s,
                21,
                config.delay_period.max(1),
                armed(config.delay_period, u64::MAX),
            ),
            dup_site: BudgetedSite::new(
                s,
                22,
                config.dup_period.max(1),
                armed(config.dup_period, config.dup_budget),
            ),
            reorder_site: BudgetedSite::new(
                s,
                23,
                config.reorder_period.max(1),
                armed(config.reorder_period, config.reorder_budget),
            ),
            injected: AtomicU64::new(0),
            config,
        }
    }

    /// The verdict for one outgoing frame.
    pub fn on_send(&self) -> LinkFaultAction {
        let action = if self.reorder_site.fire() {
            LinkFaultAction::Reorder
        } else if self.dup_site.fire() {
            LinkFaultAction::Duplicate
        } else if self.delay_site.fire() {
            LinkFaultAction::DelayUs(self.config.delay_us)
        } else {
            return LinkFaultAction::None;
        };
        // ordering: Relaxed — monotonic diagnostic counter; readers only
        // observe it after the link quiesces (flush/report boundaries).
        self.injected.fetch_add(1, Ordering::Relaxed);
        action
    }

    /// Link faults fired so far on this link.
    pub fn injected(&self) -> u64 {
        // ordering: Relaxed — see `on_send`.
        self.injected.load(Ordering::Relaxed)
    }
}

/// The live injector of one job: deterministic decisions + fired-fault
/// accounting.
#[derive(Debug)]
pub struct FaultInjector {
    /// The plan this injector executes.
    pub config: FaultConfig,
    panic_site: BudgetedSite,
    drop_site: BudgetedSite,
    corrupt_site: BudgetedSite,
    stall_armed: AtomicBool,
    kill_fired: AtomicBool,
    /// Nanosecond timestamp (job clock) of the kill, for recovery-latency
    /// accounting.
    pub killed_at_ns: AtomicU64,
}

impl FaultInjector {
    /// Builds the injector for one job run.
    pub fn new(config: FaultConfig) -> Self {
        let s = config.seed;
        FaultInjector {
            panic_site: BudgetedSite::new(s, 1, config.panic_period, config.panic_budget as u64),
            drop_site: BudgetedSite::new(
                s,
                2,
                config.steal_drop_period,
                config.steal_drop_budget as u64,
            ),
            corrupt_site: BudgetedSite::new(
                s,
                4,
                config.corrupt_period,
                config.corrupt_budget as u64,
            ),
            stall_armed: AtomicBool::new(config.stall_core.is_some()),
            kill_fired: AtomicBool::new(false),
            killed_at_ns: AtomicU64::new(0),
            config,
        }
    }

    /// Whether `worker` is (to be) killed by this plan.
    pub fn targets_worker(&self, worker: usize) -> bool {
        self.config.kill_worker == Some(worker)
    }

    /// Whether the kill has fired (the worker is dead or dying).
    pub fn kill_fired(&self) -> bool {
        // ordering: SeqCst — kill_fired pairs with the injector's one-shot
        // store; read by the watchdog, never in a hot loop.
        self.kill_fired.load(Ordering::SeqCst)
    }

    /// Checked by cores at injection points: should this core fail-stop
    /// now? Fires once the global dispatched-unit count passes the
    /// threshold. `now_ns` stamps the death for recovery-latency metrics.
    pub fn should_die(
        &self,
        worker: usize,
        ledger: &FaultLedger,
        now_ns: u64,
        total_workers: usize,
    ) -> bool {
        let target = match self.config.kill_worker {
            Some(w) => w,
            None => return false,
        };
        // Never kill the only worker: there would be no survivor to
        // recover on.
        if worker != target || total_workers < 2 {
            return false;
        }
        // ordering: Relaxed — heuristic threshold; the kill itself is
        // latched by the SeqCst swap below.
        if ledger.units_dispatched.load(Ordering::Relaxed) < self.config.kill_after_units {
            return false;
        }
        if !self.kill_fired.swap(true, Ordering::SeqCst) {
            self.killed_at_ns.store(now_ns, Ordering::SeqCst);
            // ordering: Relaxed — diagnostic counter.
            ledger.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Checked on level registration: panic this unit at `depth`?
    pub fn should_panic_at(&self, depth: usize, ledger: &FaultLedger) -> bool {
        if self.config.panic_depth != Some(depth) {
            return false;
        }
        let fire = self.panic_site.fire();
        if fire {
            // ordering: Relaxed — diagnostic counter, read after workers join.
            ledger.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Checked per steal request on the server: drop it on the floor?
    pub fn should_drop_request(&self, ledger: &FaultLedger) -> bool {
        let fire = self.drop_site.fire();
        if fire {
            // ordering: Relaxed — diagnostic counter, read after workers join.
            ledger.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Checked per served unit: corrupt the encoded bytes?
    pub fn should_corrupt(&self, ledger: &FaultLedger) -> bool {
        let fire = self.corrupt_site.fire();
        if fire {
            // ordering: Relaxed — diagnostic counter, read after workers join.
            ledger.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Checked at level registration: stall this core once (milliseconds
    /// to sleep, 0 = no)?
    pub fn stall_ms(&self, worker: usize, core: usize, ledger: &FaultLedger) -> u64 {
        if self.config.stall_core != Some((worker, core)) {
            return 0;
        }
        // ordering: SeqCst — the one-shot arm/disarm must be seen exactly once
        // across cores, or one stall config would stall twice.
        if self.stall_armed.swap(false, Ordering::SeqCst) {
            // ordering: Relaxed — diagnostic counter, read after workers join.
            ledger.faults_injected.fetch_add(1, Ordering::Relaxed);
            self.config.stall_ms
        } else {
            0
        }
    }
}

/// Replay exclusions of one re-executed unit: level prefix → words that
/// were already claimed by (and committed on) other cores, keyed by the
/// full word path of the level they were stolen from. A re-execution
/// re-enumerates its subtree deterministically, so filtering these words
/// out at level registration makes re-execution exactly-once.
pub type ReplayExclusions = HashMap<Vec<u64>, Vec<u64>>;

/// A unit owed re-execution from scratch: the stolen-unit coordinates plus
/// the exclusions collected from its previous incarnation's levels. The
/// pending-counter obligation of the original owner transfers with it —
/// whoever processes the recovery unit owes exactly one `sub_pending`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryUnit {
    /// Words leading to the unit.
    pub prefix: Vec<u64>,
    /// The unit's own word.
    pub word: u64,
    /// Words to skip during re-execution (already processed elsewhere).
    pub exclusions: ReplayExclusions,
}

impl RecoveryUnit {
    /// A recovery unit with no exclusions.
    pub fn bare(prefix: Vec<u64>, word: u64) -> Self {
        RecoveryUnit {
            prefix,
            word,
            exclusions: ReplayExclusions::new(),
        }
    }

    /// Rebuilds a recovery unit from a stolen unit (corrupt-reply
    /// requeue path).
    pub fn from_stolen(unit: StolenUnit) -> Self {
        RecoveryUnit::bare(unit.prefix, unit.word)
    }
}

/// The global queue of units owed re-execution. Idle cores drain it ahead
/// of stealing.
#[derive(Debug, Default)]
pub struct RecoveryQueue {
    inner: Mutex<VecDeque<RecoveryUnit>>,
}

impl RecoveryQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a unit for re-execution.
    pub fn push(&self, unit: RecoveryUnit) {
        self.inner.lock().push_back(unit);
    }

    /// Takes the next unit, if any.
    pub fn pop(&self) -> Option<RecoveryUnit> {
        self.inner.lock().pop_front()
    }

    /// Number of queued units (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// Health record of one core: heartbeat, fail-stop flag, and the unit it
/// is currently processing (the lost-unit reconciliation source).
#[derive(Debug, Default)]
pub struct CoreHealth {
    /// Job-clock nanoseconds of the last heartbeat.
    pub beat_ns: AtomicU64,
    /// Set by the core itself when it fail-stops (the executor-lost
    /// oracle; see module docs).
    pub dead: AtomicBool,
    /// Set by the watchdog once this core's work has been reconciled.
    pub reconciled: AtomicBool,
    /// The unit this core is processing right now.
    inflight: Mutex<Option<(Vec<u64>, u64)>>,
    /// Replay exclusions carried over from earlier failed attempts of the
    /// in-flight unit (stashed by the dying core for the watchdog).
    excl_stash: Mutex<ReplayExclusions>,
    /// The core's concurrently-readable trace tap (published at core
    /// start when `TraceConfig::tap_capacity > 0`), so the watchdog can
    /// drain a wedged core's last events without joining it.
    tap: Mutex<Option<std::sync::Arc<crate::trace::TraceTap>>>,
    /// The last records the watchdog drained from [`Self::tap`] when
    /// this core tripped — the core's "last words" diagnostic.
    last_words: Mutex<Vec<crate::trace::TapRecord>>,
}

impl CoreHealth {
    /// Stamps the heartbeat.
    #[inline]
    pub fn beat(&self, now_ns: u64) {
        // ordering: Relaxed — the watchdog reads this as a staleness
        // heuristic only; destructive action is gated on the SeqCst
        // fail-stop flag.
        self.beat_ns.store(now_ns, Ordering::Relaxed);
    }

    /// Publishes the unit this core is about to process.
    pub fn set_inflight(&self, prefix: &[u64], word: u64) {
        *self.inflight.lock() = Some((prefix.to_vec(), word));
    }

    /// Clears the in-flight record after the unit's `sub_pending`.
    pub fn clear_inflight(&self) {
        *self.inflight.lock() = None;
    }

    /// Takes the in-flight record (reconciliation).
    pub fn take_inflight(&self) -> Option<(Vec<u64>, u64)> {
        self.inflight.lock().take()
    }

    /// Stashes exclusions collected by earlier failed attempts of the
    /// in-flight unit, for the watchdog to merge at reconciliation.
    pub fn stash_exclusions(&self, excl: ReplayExclusions) {
        let mut stash = self.excl_stash.lock();
        for (k, mut v) in excl {
            stash.entry(k).or_default().append(&mut v);
        }
    }

    /// Takes the stashed exclusions (reconciliation).
    pub fn take_exclusions(&self) -> ReplayExclusions {
        std::mem::take(&mut *self.excl_stash.lock())
    }

    /// Publishes this core's trace tap for the watchdog (core start).
    pub fn publish_tap(&self, tap: std::sync::Arc<crate::trace::TraceTap>) {
        *self.tap.lock() = Some(tap);
    }

    /// Drains the newest tap records into the [`Self::last_words`]
    /// diagnostic. Called by the watchdog when this core trips; safe
    /// against the core still writing (the tap rejects torn records).
    pub fn drain_tap_diagnostic(&self, n: usize) -> u64 {
        let Some(tap) = self.tap.lock().as_ref().cloned() else {
            return 0;
        };
        let records = tap.recent(n);
        let count = records.len() as u64;
        *self.last_words.lock() = records;
        count
    }

    /// The records captured by [`Self::drain_tap_diagnostic`], oldest
    /// first (empty when no tap was configured or the core never
    /// tripped).
    pub fn last_words(&self) -> Vec<crate::trace::TapRecord> {
        self.last_words.lock().clone()
    }

    /// Marks this core fail-stopped.
    pub fn mark_dead(&self) {
        // ordering: SeqCst — fail-stop flag: the watchdog must never recover
        // obligations of a core that hasn't published its death.
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Whether the core has fail-stopped.
    pub fn is_dead(&self) -> bool {
        // ordering: SeqCst — pairs with mark_dead's store.
        self.dead.load(Ordering::SeqCst)
    }
}

/// Health records of every core in the cluster, indexed by global core
/// index (`worker * cores_per_worker + core`).
#[derive(Debug, Default)]
pub struct HealthBoard {
    /// Per-core records.
    pub cores: Vec<CoreHealth>,
    /// Cores per worker (index arithmetic).
    pub cores_per_worker: usize,
}

impl HealthBoard {
    /// A board for `workers × cores` cores.
    pub fn new(workers: usize, cores_per_worker: usize) -> Self {
        HealthBoard {
            cores: (0..workers * cores_per_worker)
                .map(|_| CoreHealth::default())
                .collect(),
            cores_per_worker,
        }
    }

    /// The record of core `(worker, core)`.
    pub fn core(&self, worker: usize, core: usize) -> &CoreHealth {
        &self.cores[worker * self.cores_per_worker + core]
    }
}

/// The per-job fault-tolerance context threaded through cores, steal
/// servers and the watchdog: the (optional) injector, the shared metric
/// ledger, the recovery queue and the health board. Exists even on
/// fault-free runs — supervision is always on; only injection is optional.
#[derive(Debug)]
pub struct FaultCtx {
    /// Fault injector, when the job runs under a fault plan.
    pub injector: Option<FaultInjector>,
    /// Shared recovery counters.
    pub ledger: FaultLedger,
    /// Units owed re-execution.
    pub recovery: RecoveryQueue,
    /// Per-core heartbeats, fail-stop flags and in-flight records.
    pub health: HealthBoard,
}

impl FaultCtx {
    /// Builds the context for a `workers × cores_per_worker` job.
    pub fn new(config: Option<FaultConfig>, workers: usize, cores_per_worker: usize) -> Self {
        FaultCtx {
            injector: config.map(FaultInjector::new),
            ledger: FaultLedger::default(),
            recovery: RecoveryQueue::new(),
            health: HealthBoard::new(workers, cores_per_worker),
        }
    }

    /// Whether the plan deliberately breaks recovery (chaos-gate
    /// self-test): lost units are accounted but never re-executed.
    pub fn sabotaged(&self) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|i| i.config.sabotage_recovery)
    }

    /// Per-unit retry budget of the supervisor.
    pub fn retry_budget(&self) -> u32 {
        self.injector
            .as_ref()
            .map_or(FaultConfig::default().retry_budget, |i| {
                i.config.retry_budget
            })
    }

    /// Heartbeat staleness threshold, in nanoseconds.
    pub fn heartbeat_timeout_ns(&self) -> u64 {
        self.injector
            .as_ref()
            .map_or(FaultConfig::default().heartbeat_timeout_ms, |i| {
                i.config.heartbeat_timeout_ms
            })
            * 1_000_000
    }

    /// Watchdog poll interval, in milliseconds.
    pub fn watchdog_poll_ms(&self) -> u64 {
        self.injector
            .as_ref()
            .map_or(FaultConfig::default().watchdog_poll_ms, |i| {
                i.config.watchdog_poll_ms
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_ctx_defaults() {
        let fcx = FaultCtx::new(None, 2, 3);
        assert!(fcx.injector.is_none());
        assert!(!fcx.sabotaged());
        assert_eq!(fcx.health.cores.len(), 6);
        assert_eq!(fcx.retry_budget(), FaultConfig::default().retry_budget);
        let sab = FaultCtx::new(
            Some(FaultConfig::worker_kill(1, 0).with_sabotaged_recovery()),
            2,
            1,
        );
        assert!(sab.sabotaged());
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Low-bit avalanche sanity: flipping one input bit flips many
        // output bits.
        let d = (splitmix64(7) ^ splitmix64(6)).count_ones();
        assert!(d > 10, "poor mixing: {d} bits");
    }

    #[test]
    fn budgeted_site_respects_period_and_budget() {
        let s = BudgetedSite::new(3, 9, 2, 2);
        let fired: Vec<bool> = (0..10).map(|_| s.fire()).collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 2, "{fired:?}");
        // Period 2: fired visits are two apart.
        let idx: Vec<usize> = fired
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(i))
            .collect();
        assert_eq!(idx[1] - idx[0], 2);
    }

    #[test]
    fn injector_kill_fires_once_and_needs_survivors() {
        let ledger = FaultLedger::default();
        let inj = FaultInjector::new(FaultConfig::worker_kill(1, 1));
        // Below the unit threshold: no kill.
        assert!(!inj.should_die(1, &ledger, 0, 2));
        ledger.units_dispatched.store(100, Ordering::Relaxed);
        // Wrong worker: no kill.
        assert!(!inj.should_die(0, &ledger, 5, 2));
        // Single worker cluster: refuse to kill the only survivor.
        assert!(!inj.should_die(1, &ledger, 5, 1));
        assert!(inj.should_die(1, &ledger, 5, 2));
        assert!(inj.kill_fired());
        assert_eq!(inj.killed_at_ns.load(Ordering::SeqCst), 5);
        // Firing again keeps the original timestamp and counts one fault.
        assert!(inj.should_die(1, &ledger, 9, 2));
        assert_eq!(inj.killed_at_ns.load(Ordering::SeqCst), 5);
        assert_eq!(ledger.faults_injected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn injector_panic_depth_gated() {
        let ledger = FaultLedger::default();
        let inj = FaultInjector::new(FaultConfig::unit_panic(9, 2));
        assert!(!inj.should_panic_at(1, &ledger));
        let fired: usize = (0..20).filter(|_| inj.should_panic_at(2, &ledger)).count();
        assert_eq!(fired, 2);
        assert_eq!(ledger.faults_injected.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn stall_fires_once_for_target_core() {
        let ledger = FaultLedger::default();
        let inj = FaultInjector::new(FaultConfig::stall(4, 0, 1, 25));
        assert_eq!(inj.stall_ms(0, 0, &ledger), 0);
        assert_eq!(inj.stall_ms(0, 1, &ledger), 25);
        assert_eq!(inj.stall_ms(0, 1, &ledger), 0);
    }

    #[test]
    fn recovery_queue_fifo() {
        let q = RecoveryQueue::new();
        assert!(q.is_empty());
        q.push(RecoveryUnit::bare(vec![1], 2));
        q.push(RecoveryUnit::bare(vec![], 7));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().word, 2);
        assert_eq!(q.pop().unwrap().word, 7);
        assert!(q.pop().is_none());
    }

    #[test]
    fn health_board_inflight_lifecycle() {
        let b = HealthBoard::new(2, 2);
        let h = b.core(1, 0);
        h.beat(42);
        assert_eq!(h.beat_ns.load(Ordering::Relaxed), 42);
        h.set_inflight(&[3, 4], 5);
        assert!(!h.is_dead());
        h.mark_dead();
        assert!(h.is_dead());
        assert_eq!(h.take_inflight(), Some((vec![3, 4], 5)));
        assert_eq!(h.take_inflight(), None);
    }

    #[test]
    fn ledger_snapshot_roundtrip() {
        let l = FaultLedger::default();
        l.units_retried.store(3, Ordering::Relaxed);
        l.watchdog_trips.store(1, Ordering::Relaxed);
        let s = l.snapshot();
        assert_eq!(s.units_retried, 3);
        assert_eq!(s.watchdog_trips, 1);
        assert!(s.any_recovery());
        assert!(!FaultStats::default().any_recovery());
    }

    #[test]
    fn fault_stats_table_covers_every_counter() {
        crate::stats::check_table(FaultStats::FIELDS, std::mem::size_of::<FaultStats>() / 8);
        let mut a = FaultStats {
            tap_drained: 3,
            ..Default::default()
        };
        a.absorb(&FaultStats {
            tap_drained: 4,
            units_lost: 1,
            ..Default::default()
        });
        assert_eq!((a.tap_drained, a.units_lost), (7, 1));
    }

    #[test]
    fn link_fault_injector_is_deterministic() {
        let run = || {
            let inj = LinkFaultInjector::new(LinkFaultConfig::flaky(77));
            (0..200).map(|_| inj.on_send()).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed must yield the same action stream");
        assert!(a.contains(&LinkFaultAction::Duplicate));
        assert!(a.contains(&LinkFaultAction::Reorder));
        assert!(a.contains(&LinkFaultAction::DelayUs(1_500)));
        let other = LinkFaultInjector::new(LinkFaultConfig::flaky(78));
        let b: Vec<_> = (0..200).map(|_| other.on_send()).collect();
        assert_ne!(a, b, "different seeds should diverge");
    }

    #[test]
    fn link_fault_injector_counts_and_respects_budgets() {
        let cfg = LinkFaultConfig {
            seed: 5,
            delay_period: 0, // disabled
            delay_us: 10,
            dup_period: 2,
            dup_budget: 3,
            reorder_period: 0, // disabled
            reorder_budget: 9,
        };
        let inj = LinkFaultInjector::new(cfg);
        let dups = (0..100)
            .filter(|_| inj.on_send() == LinkFaultAction::Duplicate)
            .count();
        assert_eq!(dups, 3, "dup budget must cap firings");
        assert_eq!(inj.injected(), 3);
        // Fully disabled plan never fires and never counts.
        let off = LinkFaultInjector::new(LinkFaultConfig {
            seed: 5,
            delay_period: 0,
            delay_us: 0,
            dup_period: 0,
            dup_budget: 0,
            reorder_period: 0,
            reorder_budget: 0,
        });
        assert!((0..50).all(|_| off.on_send() == LinkFaultAction::None));
        assert_eq!(off.injected(), 0);
    }
}
