//! The runtime flight recorder: structured metrics and event traces.
//!
//! Per-core, single-writer ring buffers record typed [`TraceEvent`]s (task
//! claims, steals, level transitions, aggregation flushes) with
//! nanosecond timestamps relative to job start, alongside log-scale
//! [`Histogram`]s of steal latency, unit service time and extension-call
//! depth. This is the observability substrate behind the paper's
//! drill-down figures (per-core utilization timelines of Fig. 8,
//! internal/external steal breakdowns of Fig. 9/16) and the CI regression
//! gate: every run can export a machine-readable JSON metrics summary
//! ([`crate::stats::JobReport::to_json`]) plus a JSONL event trace
//! ([`TraceDump::write_jsonl`]).
//!
//! ## Cost model
//!
//! Recording must be cheap enough to leave on under measurement:
//!
//! - each buffer is **owned by exactly one core thread** — no locks, no
//!   shared cache lines on the hot path; buffers are only collected after
//!   the core joins;
//! - an event append is a bounds-checked array write plus a wrapping
//!   index increment; when the ring is full the oldest events are
//!   overwritten and counted in [`RingBuffer::dropped`];
//! - a histogram update is one `leading_zeros` and three integer ops;
//! - with the recorder disabled (the default) every record call is a
//!   single branch on a local bool ([`TraceConfig::enabled`] is the only
//!   gate).

use crate::json::{self, Emitter};
use crate::level::GlobalCoreId;
use crate::sync::{AtomicU64, Ordering};
use std::io::{self, Write};
use std::sync::Arc;

/// The event vocabulary of the flight recorder.
///
/// Each event carries two payload words `a`/`b` whose meaning is listed
/// per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A work unit was claimed for processing. `a` = prefix depth,
    /// `b` = claimed word.
    TaskClaim,
    /// A work unit finished processing. `a` = prefix depth, `b` = service
    /// time in ns.
    UnitDone,
    /// A successful intra-worker steal. `a` = victim core index,
    /// `b` = stolen word.
    InternalSteal,
    /// A successful inter-worker steal. `a` = victim worker index
    /// (`u64::MAX` for a unit pulled from another process), `b` = the
    /// unit's wire bytes.
    ExternalSteal,
    /// One external steal ask completed (hit or miss). `a` = victim
    /// worker index, `b` = ns from the ask to its answer (the claim scan,
    /// plus the simulated latency on a hit).
    StealRoundTrip,
    /// An enumeration level was registered. `a` = depth (prefix words),
    /// `b` = number of extensions.
    LevelPush,
    /// The most recent enumeration level was unregistered. `a` = depth of
    /// the popped level, `b` = 0.
    LevelPop,
    /// A per-core aggregation shard was flushed for merging. `a` = live
    /// aggregation slot, `b` = reduced entries in the shard.
    AggFlush,
    /// Kernel counters were drained after a work unit. `a` = elements
    /// scanned since the last flush, `b` = kernel invocations
    /// (merge + gallop + bitset) since the last flush.
    KernelFlush,
    /// The fault injector fired on this core. `a` = fault kind
    /// (0 = kill, 1 = unit panic, 2 = stall), `b` = kind-specific detail
    /// (panic depth, stall ms).
    FaultInjected,
    /// A supervised unit panicked and is being retried. `a` = attempt
    /// number (1-based), `b` = backoff microseconds before the retry.
    UnitRetry,
    /// The watchdog tripped on a stale heartbeat. `a` = suspected global
    /// core index, `b` = heartbeat staleness ns.
    WatchdogTrip,
    /// A lost unit was re-executed from the recovery queue. `a` = prefix
    /// depth, `b` = claimed word.
    UnitReexec,
}

impl EventKind {
    /// Stable snake_case name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::TaskClaim => "task_claim",
            EventKind::UnitDone => "unit_done",
            EventKind::InternalSteal => "internal_steal",
            EventKind::ExternalSteal => "external_steal",
            EventKind::StealRoundTrip => "steal_round_trip",
            EventKind::LevelPush => "level_push",
            EventKind::LevelPop => "level_pop",
            EventKind::AggFlush => "agg_flush",
            EventKind::KernelFlush => "kernel_flush",
            EventKind::FaultInjected => "fault_injected",
            EventKind::UnitRetry => "unit_retry",
            EventKind::WatchdogTrip => "watchdog_trip",
            EventKind::UnitReexec => "unit_reexec",
        }
    }

    /// Recovers a kind from its `#[repr(u8)]` discriminant (the tap
    /// ring stores kinds as raw bytes).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::TaskClaim,
            1 => EventKind::UnitDone,
            2 => EventKind::InternalSteal,
            3 => EventKind::ExternalSteal,
            4 => EventKind::StealRoundTrip,
            5 => EventKind::LevelPush,
            6 => EventKind::LevelPop,
            7 => EventKind::AggFlush,
            8 => EventKind::KernelFlush,
            9 => EventKind::FaultInjected,
            10 => EventKind::UnitRetry,
            11 => EventKind::WatchdogTrip,
            12 => EventKind::UnitReexec,
            _ => return None,
        })
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "task_claim" => EventKind::TaskClaim,
            "unit_done" => EventKind::UnitDone,
            "internal_steal" => EventKind::InternalSteal,
            "external_steal" => EventKind::ExternalSteal,
            "steal_round_trip" => EventKind::StealRoundTrip,
            "level_push" => EventKind::LevelPush,
            "level_pop" => EventKind::LevelPop,
            "agg_flush" => EventKind::AggFlush,
            "kernel_flush" => EventKind::KernelFlush,
            "fault_injected" => EventKind::FaultInjected,
            "unit_retry" => EventKind::UnitRetry,
            "watchdog_trip" => EventKind::WatchdogTrip,
            "unit_reexec" => EventKind::UnitReexec,
            _ => return None,
        })
    }
}

/// One recorded event: a timestamp (ns since job start), a kind and two
/// kind-specific payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since job start.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word (see [`EventKind`]).
    pub b: u64,
}

/// A fixed-capacity overwriting ring of [`TraceEvent`]s.
///
/// Single-writer by construction (each core owns its buffer), so pushes
/// are plain writes. When full, the oldest event is overwritten; the
/// total number of overwritten events is reported by
/// [`dropped`](Self::dropped).
#[derive(Debug, Clone)]
pub struct RingBuffer {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Total events ever pushed (monotonic).
    pushed: u64,
}

impl RingBuffer {
    /// Creates a ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        RingBuffer {
            buf: Vec::with_capacity(cap.min(4096)),
            cap,
            pushed: 0,
        }
    }

    /// Appends an event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            let idx = (self.pushed % self.cap as u64) as usize;
            self.buf[idx] = event;
        }
        self.pushed += 1;
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no event was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed (monotonic counter).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.pushed.saturating_sub(self.buf.len() as u64)
    }

    /// The retained events in chronological order.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        if self.pushed <= self.cap as u64 {
            return self.buf.clone();
        }
        let split = (self.pushed % self.cap as u64) as usize;
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[split..]);
        out.extend_from_slice(&self.buf[..split]);
        out
    }
}

/// A log₂-bucketed histogram of `u64` samples (65 buckets: one per bit
/// width, bucket 0 = value 0). Cheap enough for the hot path: one
/// `leading_zeros` plus three adds per sample.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded samples (monotonic).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`): the samples' value is below `2^(bucket)` — a factor-two
    /// estimate, which is what a regression gate needs.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// `(bucket_upper_bound, count)` pairs for non-empty buckets.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << i.min(63) }, n))
            .collect()
    }
}

/// Number of low bits of a tap slot word carrying payload; the top
/// 16 bits carry the record's generation tag.
const TAP_TAG_SHIFT: u32 = 48;
const TAP_PAYLOAD_MASK: u64 = (1 << TAP_TAG_SHIFT) - 1;
/// Payload bits of `a` in the first slot word (the top 8 payload bits
/// hold the event kind).
const TAP_A_BITS: u32 = 40;
const TAP_A_MASK: u64 = (1 << TAP_A_BITS) - 1;

fn tap_pack(generation: u64, payload: u64) -> u64 {
    ((generation & 0xFFFF) << TAP_TAG_SHIFT) | (payload & TAP_PAYLOAD_MASK)
}

/// A compact diagnostic record drained from a [`TraceTap`]. Payloads are
/// truncated (`a` to 40 bits, `b` to 48) — the tap is a diagnostic
/// channel, not the trace of record ([`RingBuffer`] keeps full events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapRecord {
    /// What happened.
    pub kind: EventKind,
    /// First payload word, truncated to 40 bits.
    pub a: u64,
    /// Second payload word, truncated to 48 bits.
    pub b: u64,
}

/// One tap slot: two tagged words making up a record.
#[derive(Debug, Default)]
struct TapSlot {
    a: AtomicU64,
    b: AtomicU64,
}

/// A concurrently-readable shadow of the flight recorder: a single-writer
/// ring whose recent records another thread (the watchdog) can drain
/// *while the owner is wedged* — the private [`RingBuffer`] is only
/// collectable after its core joins, which a stalled core never does.
///
/// Lock-free coherence comes from content validation rather than slot
/// ordering: each of a record's two slot words embeds a 16-bit generation
/// tag (bits 48..64), so the slot stores themselves can be `Relaxed`; a
/// reader accepts a record only if both words carry the expected tag,
/// which makes a torn read (one word from generation `g`, the other
/// already overwritten by `g + capacity`) *detectable and rejected*
/// instead of silently wrong. A plain head-recheck seqlock cannot give
/// this guarantee under weak memory — the model pair
/// `trace.ring_tagged` / `trace.ring_untagged` in
/// `crates/check/src/models.rs` demonstrates exactly that failure and
/// this design's immunity to it.
///
/// The tag wraps every 65 536 overwrites of a slot, so a reader
/// suspended across exactly `65 536 × capacity` published records could
/// accept a coherent-but-recycled record. That record is still a real
/// record (both words from one generation), merely older than the head
/// suggests — acceptable for a diagnostic channel.
#[derive(Debug)]
pub struct TraceTap {
    slots: Box<[TapSlot]>,
    /// Records ever published. Bumped with `Release` after the slot
    /// words are in place.
    head: AtomicU64,
}

impl TraceTap {
    /// A tap retaining the last `capacity` records (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> Self {
        TraceTap {
            slots: (0..capacity.max(1)).map(|_| TapSlot::default()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Retained capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever published.
    pub fn published(&self) -> u64 {
        // ordering: Acquire pairs with the writer's Release publish so a
        // reader that sees head = n also sees the slot words of record
        // n - 1 (the tag check still guards against later overwrites).
        self.head.load(Ordering::Acquire)
    }

    /// Publishes one record. Must only be called by the owning core
    /// (single writer); concurrent writers would interleave generations.
    #[inline]
    pub fn publish(&self, kind: EventKind, a: u64, b: u64) {
        // ordering: single writer — only the owner advances head, so a
        // Relaxed read of our own last store is exact.
        let i = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(i % cap) as usize];
        let generation = i / cap + 1; // tag 0 = never written
        let w0 = tap_pack(generation, ((kind as u64) << TAP_A_BITS) | (a & TAP_A_MASK));
        let w1 = tap_pack(generation, b);
        // ordering: Relaxed — coherence is by generation tag, not by
        // ordering; see the type-level docs.
        slot.a.store(w0, Ordering::Relaxed);
        slot.b.store(w1, Ordering::Relaxed);
        // ordering: Release publish pairs with readers' Acquire head
        // loads.
        self.head.store(i + 1, Ordering::Release);
    }

    /// Reads record `i` (0-based publish index), if it is still coherent
    /// in its slot. Returns `None` for unpublished, overwritten or torn
    /// slots — never a mixed record.
    pub fn read(&self, i: u64) -> Option<TapRecord> {
        // ordering: Acquire pairs with the writer's Release publish.
        let head = self.head.load(Ordering::Acquire);
        if i >= head {
            return None;
        }
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(i % cap) as usize];
        let generation = (i / cap + 1) & 0xFFFF;
        // ordering: Relaxed — validated by the embedded tags below.
        let w0 = slot.a.load(Ordering::Relaxed);
        let w1 = slot.b.load(Ordering::Relaxed);
        if w0 >> TAP_TAG_SHIFT != generation || w1 >> TAP_TAG_SHIFT != generation {
            return None; // overwritten (or torn) since publication
        }
        let payload = w0 & TAP_PAYLOAD_MASK;
        let kind = EventKind::from_u8((payload >> TAP_A_BITS) as u8)?;
        Some(TapRecord {
            kind,
            a: payload & TAP_A_MASK,
            b: w1 & TAP_PAYLOAD_MASK,
        })
    }

    /// Drains the newest `n` coherent records, oldest first. Racing the
    /// writer may yield fewer than `n` (overwritten slots are skipped,
    /// never returned torn).
    pub fn recent(&self, n: usize) -> Vec<TapRecord> {
        let head = self.published();
        let lo = head.saturating_sub(n.min(self.slots.len()) as u64);
        (lo..head).filter_map(|i| self.read(i)).collect()
    }
}

/// Flight-recorder configuration, carried by
/// [`ClusterConfig`](crate::ClusterConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether events and histograms are recorded at all.
    pub enabled: bool,
    /// Per-core ring capacity in events.
    pub ring_capacity: usize,
    /// Capacity of the concurrently-readable [`TraceTap`] shadow ring,
    /// in records; 0 (the default) disables the tap entirely — no
    /// allocation, no per-record stores.
    pub tap_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: 65_536,
            tap_capacity: 0,
        }
    }
}

impl TraceConfig {
    /// An enabled recorder with the default ring capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// The per-core recorder: one ring plus the standard histograms. Owned
/// exclusively by its core thread while the job runs.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    ring: RingBuffer,
    /// Concurrently-readable shadow of the ring's tail (see
    /// [`TraceTap`]); present only when `tap_capacity > 0`.
    tap: Option<Arc<TraceTap>>,
    /// Time from turning thief to acquiring a unit, ns.
    pub steal_latency_ns: Histogram,
    /// process_unit wall time per dispatched unit, ns.
    pub service_ns: Histogram,
    /// Prefix depth at each extension computation (the DFS depth profile).
    pub ext_depth: Histogram,
}

impl Recorder {
    /// Builds a recorder according to `config`.
    pub fn new(config: TraceConfig) -> Self {
        Recorder {
            enabled: config.enabled,
            ring: RingBuffer::new(if config.enabled {
                config.ring_capacity
            } else {
                1
            }),
            tap: (config.enabled && config.tap_capacity > 0)
                .then(|| Arc::new(TraceTap::new(config.tap_capacity))),
            steal_latency_ns: Histogram::new(),
            service_ns: Histogram::new(),
            ext_depth: Histogram::new(),
        }
    }

    /// A recorder that drops everything (single-branch record calls).
    pub fn disabled() -> Self {
        Self::new(TraceConfig::default())
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The concurrently-readable tap, for handing to a supervisor
    /// (`None` unless `tap_capacity > 0`).
    pub fn tap(&self) -> Option<Arc<TraceTap>> {
        self.tap.clone()
    }

    /// Records one event. A no-op unless enabled.
    #[inline]
    pub fn record(&mut self, t_ns: u64, kind: EventKind, a: u64, b: u64) {
        if self.enabled {
            self.ring.push(TraceEvent { t_ns, kind, a, b });
            if let Some(tap) = &self.tap {
                tap.publish(kind, a, b);
            }
        }
    }

    /// Records a steal-latency sample (ns).
    #[inline]
    pub fn record_steal_latency(&mut self, ns: u64) {
        if self.enabled {
            self.steal_latency_ns.record(ns);
        }
    }

    /// Records a unit service-time sample (ns).
    #[inline]
    pub fn record_service(&mut self, ns: u64) {
        if self.enabled {
            self.service_ns.record(ns);
        }
    }

    /// Records an extension-call depth sample.
    #[inline]
    pub fn record_ext_depth(&mut self, depth: u64) {
        if self.enabled {
            self.ext_depth.record(depth);
        }
    }

    /// Freezes the recorder into its exportable per-core trace.
    pub fn into_core_trace(self, id: GlobalCoreId) -> CoreTrace {
        CoreTrace {
            id,
            dropped: self.ring.dropped(),
            total_events: self.ring.total_pushed(),
            events: self.ring.to_vec(),
            steal_latency_ns: self.steal_latency_ns,
            service_ns: self.service_ns,
            ext_depth: self.ext_depth,
        }
    }
}

/// The frozen trace of one core.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    /// Which core recorded this trace.
    pub id: GlobalCoreId,
    /// Retained events, chronological.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwriting.
    pub dropped: u64,
    /// Total events recorded (monotonic; `events.len() + dropped`).
    pub total_events: u64,
    /// Steal-latency samples.
    pub steal_latency_ns: Histogram,
    /// Unit service-time samples.
    pub service_ns: Histogram,
    /// Extension-call depth samples.
    pub ext_depth: Histogram,
}

/// The full event trace of one job: every core's frozen recorder.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Per-core traces, ordered by core id.
    pub cores: Vec<CoreTrace>,
}

impl TraceDump {
    /// Total retained events across cores.
    pub fn num_events(&self) -> usize {
        self.cores.iter().map(|c| c.events.len()).sum()
    }

    /// Total events lost to ring overwriting across cores.
    pub fn total_dropped(&self) -> u64 {
        self.cores.iter().map(|c| c.dropped).sum()
    }

    /// Merged histograms across cores:
    /// `(steal_latency_ns, service_ns, ext_depth)`.
    pub fn merged_histograms(&self) -> (Histogram, Histogram, Histogram) {
        let mut steal = Histogram::new();
        let mut service = Histogram::new();
        let mut depth = Histogram::new();
        for c in &self.cores {
            steal.merge(&c.steal_latency_ns);
            service.merge(&c.service_ns);
            depth.merge(&c.ext_depth);
        }
        (steal, service, depth)
    }

    /// Writes the trace as JSON Lines: one event object per line,
    /// `{"w":…,"c":…,"t_ns":…,"kind":"…","a":…,"b":…}`, each core's
    /// events in chronological order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for core in &self.cores {
            for ev in &core.events {
                let mut e = Emitter::compact();
                e.begin_obj();
                e.key("w").u64(core.id.worker as u64);
                e.key("c").u64(core.id.core as u64);
                e.key("t_ns").u64(ev.t_ns);
                e.key("kind").str(ev.kind.as_str());
                e.key("a").u64(ev.a);
                e.key("b").u64(ev.b);
                e.end_obj();
                out.write_all(e.finish().as_bytes())?;
            }
        }
        Ok(())
    }

    /// Parses a JSONL trace produced by
    /// [`write_jsonl`](Self::write_jsonl) back into per-core event lists
    /// (histograms are not part of the event stream). Inverse of the
    /// writer for round-trip validation and offline analysis.
    pub fn parse_jsonl(input: &str) -> Result<TraceDump, String> {
        let mut cores: Vec<CoreTrace> = Vec::new();
        for (lineno, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}", lineno + 1);
            let obj = json::parse(line).map_err(|e| err(&e))?;
            let num = |key: &str| {
                obj.get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| err(&format!("missing \"{key}\"")))
            };
            let (w, c) = (num("w")? as usize, num("c")? as usize);
            let (t_ns, a, b) = (num("t_ns")?, num("a")?, num("b")?);
            let kind_s = obj
                .get("kind")
                .and_then(|v| v.as_str())
                .ok_or_else(|| err("missing \"kind\""))?;
            let kind =
                EventKind::parse(kind_s).ok_or_else(|| err(&format!("unknown kind {kind_s:?}")))?;
            let id = GlobalCoreId { worker: w, core: c };
            let event = TraceEvent { t_ns, kind, a, b };
            match cores.iter_mut().find(|ct| ct.id == id) {
                Some(ct) => {
                    ct.events.push(event);
                    ct.total_events += 1;
                }
                None => cores.push(CoreTrace {
                    id,
                    events: vec![event],
                    dropped: 0,
                    total_events: 1,
                    steal_latency_ns: Histogram::new(),
                    service_ns: Histogram::new(),
                    ext_depth: Histogram::new(),
                }),
            }
        }
        Ok(TraceDump { cores })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn ring_records_in_order_below_capacity() {
        let mut r = RingBuffer::new(8);
        for i in 0..5 {
            r.push(ev(i, EventKind::TaskClaim, 0, i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.total_pushed(), 5);
        let v = r.to_vec();
        assert_eq!(v.len(), 5);
        assert!(v.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
    }

    #[test]
    fn ring_wraparound_keeps_newest_in_order() {
        let mut r = RingBuffer::new(4);
        for i in 0..11 {
            r.push(ev(i, EventKind::LevelPush, i, 0));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_pushed(), 11);
        assert_eq!(r.dropped(), 7);
        let v: Vec<u64> = r.to_vec().iter().map(|e| e.t_ns).collect();
        assert_eq!(v, vec![7, 8, 9, 10]);
    }

    #[test]
    fn ring_capacity_clamped_to_one() {
        let mut r = RingBuffer::new(0);
        r.push(ev(1, EventKind::LevelPop, 0, 0));
        r.push(ev(2, EventKind::LevelPop, 0, 0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.to_vec()[0].t_ns, 2);
    }

    #[test]
    fn histogram_counters_are_monotone_and_exact() {
        let mut h = Histogram::new();
        let mut last_count = 0;
        for v in [0u64, 1, 1, 3, 9, 1000, u64::MAX] {
            h.record(v);
            assert!(h.count() > last_count, "count must strictly increase");
            last_count = h.count();
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        // value 0 lands in bucket 0; ones in bucket 1 (bound 2).
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (2, 2));
        assert!(h.quantile_bound(0.5) <= 4);
        assert!(h.quantile_bound(1.0) >= 1 << 62);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 500);
        assert_eq!(a.sum(), 512);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut r = Recorder::disabled();
        r.record(1, EventKind::TaskClaim, 0, 0);
        r.record_service(10);
        r.record_steal_latency(10);
        r.record_ext_depth(2);
        let ct = r.into_core_trace(GlobalCoreId { worker: 0, core: 0 });
        assert!(ct.events.is_empty());
        assert_eq!(ct.service_ns.count(), 0);
    }

    #[test]
    fn enabled_recorder_round_trips_through_jsonl() {
        let mut r0 = Recorder::new(TraceConfig::enabled());
        let mut r1 = Recorder::new(TraceConfig::enabled());
        r0.record(10, EventKind::TaskClaim, 0, 42);
        r0.record(20, EventKind::LevelPush, 1, 16);
        r0.record(30, EventKind::InternalSteal, 3, 7);
        r1.record(15, EventKind::ExternalSteal, 1, 36);
        r1.record(25, EventKind::StealRoundTrip, 1, 100_000);
        r1.record(35, EventKind::AggFlush, 0, 12);
        r1.record(45, EventKind::KernelFlush, 4096, 17);
        let dump = TraceDump {
            cores: vec![
                r0.into_core_trace(GlobalCoreId { worker: 0, core: 0 }),
                r1.into_core_trace(GlobalCoreId { worker: 1, core: 0 }),
            ],
        };
        let mut buf = Vec::new();
        dump.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 7);
        let parsed = TraceDump::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.cores.len(), dump.cores.len());
        for (p, d) in parsed.cores.iter().zip(dump.cores.iter()) {
            assert_eq!(p.id, d.id);
            assert_eq!(p.events, d.events);
        }
    }

    #[test]
    fn tap_retains_and_rejects_overwritten() {
        let tap = TraceTap::new(4);
        for i in 0..10u64 {
            tap.publish(EventKind::TaskClaim, i, i * 100);
        }
        assert_eq!(tap.published(), 10);
        // Records 0..6 are overwritten; their reads must reject, not
        // return a newer record under an old index.
        for i in 0..6 {
            assert_eq!(tap.read(i), None, "overwritten record {i} accepted");
        }
        let recent = tap.recent(16);
        assert_eq!(recent.len(), 4);
        assert_eq!(
            recent.iter().map(|r| r.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert!(recent.iter().all(|r| r.kind == EventKind::TaskClaim));
        assert!(recent.iter().all(|r| r.b == r.a * 100));
        // Unpublished index.
        assert_eq!(tap.read(10), None);
    }

    #[test]
    fn tap_truncates_payloads_not_kind() {
        let tap = TraceTap::new(2);
        tap.publish(EventKind::UnitReexec, u64::MAX, u64::MAX);
        let r = tap.read(0).unwrap();
        assert_eq!(r.kind, EventKind::UnitReexec);
        assert_eq!(r.a, (1 << 40) - 1);
        assert_eq!(r.b, (1 << 48) - 1);
    }

    #[test]
    fn tap_concurrent_reader_never_sees_torn_record() {
        let tap = Arc::new(TraceTap::new(8));
        let writer = {
            let tap = tap.clone();
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    let a = i & TAP_A_MASK;
                    tap.publish(EventKind::UnitDone, a, a ^ 0xABCD);
                }
            })
        };
        let mut accepted = 0u64;
        while accepted < 1_000 {
            for r in tap.recent(8) {
                assert_eq!(r.b, r.a ^ 0xABCD, "torn record escaped the tag check");
                accepted += 1;
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn recorder_mirrors_events_into_tap() {
        let mut r = Recorder::new(TraceConfig {
            tap_capacity: 16,
            ..TraceConfig::enabled()
        });
        let tap = r.tap().expect("tap requested but absent");
        r.record(10, EventKind::TaskClaim, 1, 2);
        r.record(20, EventKind::UnitDone, 3, 4);
        assert_eq!(tap.published(), 2);
        assert_eq!(
            tap.recent(16),
            vec![
                TapRecord {
                    kind: EventKind::TaskClaim,
                    a: 1,
                    b: 2
                },
                TapRecord {
                    kind: EventKind::UnitDone,
                    a: 3,
                    b: 4
                },
            ]
        );
        // Default config: no tap, no overhead.
        assert!(Recorder::new(TraceConfig::enabled()).tap().is_none());
        assert!(Recorder::disabled().tap().is_none());
    }

    #[test]
    fn event_kind_u8_round_trips() {
        for v in 0..=13u8 {
            match EventKind::from_u8(v) {
                Some(k) => assert_eq!(k as u8, v),
                None => assert_eq!(v, 13, "discriminant {v} unexpectedly unmapped"),
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceDump::parse_jsonl("{\"w\":0}").is_err());
        assert!(TraceDump::parse_jsonl(
            "{\"w\":0,\"c\":0,\"t_ns\":1,\"kind\":\"nope\",\"a\":0,\"b\":0}"
        )
        .is_err());
        // Blank lines are fine.
        assert_eq!(TraceDump::parse_jsonl("\n\n").unwrap().cores.len(), 0);
    }
}
