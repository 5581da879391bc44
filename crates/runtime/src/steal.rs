//! The steal protocol: claim semantics, wire format and steal servers.
//!
//! Internal steals are direct shared-memory claims on a sibling core's
//! level queues. External steals go through a per-worker *steal server*
//! (the actor of Fig. 6c/9b): the idle core sends a request, the victim's
//! server claims one extension on its behalf, serializes `(prefix, word)`
//! into a length-prefixed, checksummed byte buffer, applies the simulated
//! network latency and replies. "A subgraph enumerator (prefix) represents
//! a unique independent piece of work that can be shipped to any worker"
//! (§4.2).
//!
//! ## Exactly-once under faults
//!
//! Serving a unit moves a pending-counter obligation across the wire, so
//! the reply carries an **ack channel**: the requester acks `true` after a
//! successful checksum-verified decode (before processing — from then on
//! its own supervision owns the unit), or `false` when the payload is
//! corrupt. The server parks every served unit in an unacked list and
//! requeues it onto the global [`RecoveryQueue`](crate::fault::RecoveryQueue)
//! when it is nacked — or when the requester vanished (dropped channel)
//! before acking. Either way the obligation lands on exactly one owner and
//! the job's `pending` invariant survives lost or mangled messages.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::executor::JobState;
use crate::fault::{FaultCtx, RecoveryUnit};
use crate::level::{LevelQueue, WorkerRegistry};
use crate::sync::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use crate::sync::{AtomicU64, Ordering};
use crate::wire::{self, unseal, Reader, Writer};
use std::time::{Duration, Instant};

/// A unit of stolen work: the prefix to rebuild plus the claimed extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StolenUnit {
    /// Words leading to the level the extension was stolen from.
    pub prefix: Vec<u64>,
    /// The claimed extension word.
    pub word: u64,
}

/// Claims one extension from `level`, maintaining the job's pending
/// accounting: uncounted (inner) queues are inflated *before* the claim so
/// the work can never be considered finished while the stolen unit is in
/// flight; the claimer owes one `sub_pending` after processing. Thief
/// claims are recorded in the level's steal log so a failed owner's
/// re-execution can exclude them (see [`LevelQueue::thief_claim`]).
pub fn try_claim(level: &LevelQueue, job: &JobState) -> Option<u64> {
    if !level.counted {
        job.add_pending(1);
    }
    match level.thief_claim() {
        Some(w) => Some(w),
        None => {
            if !level.counted {
                job.sub_pending();
            }
            None
        }
    }
}

/// Scans `registry` for a stealable level (skipping core `skip`, if local)
/// and claims from it. Returns `(victim core index, stolen unit)`.
///
/// Victim selection ranks candidates by the clamped racy
/// `ExtensionQueue::remaining` snapshot (see
/// [`WorkerRegistry::find_stealable`]): the snapshot may overstate a
/// victim's work but can never wrap, so a stale pick costs at most one
/// failed `claim` — absorbed by the retry loop below.
pub fn steal_from_registry(
    registry: &WorkerRegistry,
    skip: Option<usize>,
    job: &JobState,
) -> Option<(usize, StolenUnit)> {
    // A failed claim (lost race) retries the scan a few times before giving
    // up, so near-misses don't immediately escalate to remote steals.
    for _ in 0..4 {
        let (victim, level) = registry.find_stealable(skip)?;
        if let Some(word) = try_claim(&level, job) {
            return Some((
                victim,
                StolenUnit {
                    prefix: level.prefix.clone(),
                    word,
                },
            ));
        }
    }
    None
}

/// Claims one **root** word for export to another process (the TCP steal
/// server of `fractal-net`), scanning every worker registry for a counted
/// (depth-0) level with unclaimed extensions. On success the word's
/// pre-counted `pending` obligation is settled locally — ownership has
/// moved to the remote coordinator, which re-counts it wherever the word
/// lands. Inner (uncounted) levels are never exported: the coordinator
/// tracks work at root-word granularity, and inner subtrees stay balanced
/// by in-process stealing.
///
/// Only meaningful on a job that holds a termination hold (external
/// hooks): otherwise the settle below could flip `done` while the
/// exported word is still in flight.
pub fn steal_root_for_export(
    registries: &[std::sync::Arc<WorkerRegistry>],
    job: &JobState,
) -> Option<u64> {
    for _ in 0..4 {
        let level = registries
            .iter()
            .find_map(|reg| reg.find_stealable(None).map(|(_, l)| l))?;
        if !level.counted {
            // Shallowest-first scans return counted root levels while any
            // have work; an uncounted pick means no root words remain.
            return None;
        }
        if let Some(word) = try_claim(&level, job) {
            job.sub_pending();
            return Some(word);
        }
    }
    None
}

/// Serializes a stolen unit: `u32` prefix length, prefix words, word, and
/// a trailing FNV-1a 64 checksum over everything before it.
pub fn encode_unit(unit: &StolenUnit) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + 8 * (unit.prefix.len() + 2));
    w.words(&unit.prefix);
    w.u64(unit.word);
    w.seal()
}

/// Why a steal payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the header + checksum require.
    Truncated {
        /// Bytes required by the framing.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The trailing checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum carried by the message.
        expected: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// Extra bytes after the checksum.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated steal payload: need {needed} bytes, got {got}")
            }
            DecodeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "steal payload checksum mismatch: expected {expected:#x}, got {actual:#x}"
            ),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes in steal payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// [`decode_unit`] checks the exact length before it reads a field, so
/// these conversions are never taken and carry no byte counts.
impl From<wire::Error> for DecodeError {
    fn from(e: wire::Error) -> Self {
        match e {
            wire::Error::TrailingBytes => DecodeError::TrailingBytes(0),
            wire::Error::Truncated | wire::Error::BadUtf8 => {
                DecodeError::Truncated { needed: 0, got: 0 }
            }
        }
    }
}

/// Deserializes a stolen unit, verifying framing and checksum. Never
/// panics: adversarial input (truncation, bit flips, garbage) yields a
/// [`DecodeError`].
pub fn decode_unit(bytes: &[u8]) -> Result<StolenUnit, DecodeError> {
    // The prefix length fixes the frame size exactly: u32 len, `len`
    // prefix words, the word and the checksum.
    let total = bytes.len();
    let len = Reader::new(bytes).u32().map_or(0, |n| n as usize);
    let needed = 4 + 8 * (len + 2);
    if total < needed {
        return Err(DecodeError::Truncated { needed, got: total });
    }
    if total > needed {
        return Err(DecodeError::TrailingBytes(total - needed));
    }
    let (body, carried, actual) = unseal(bytes)?;
    if carried != actual {
        return Err(DecodeError::ChecksumMismatch {
            expected: carried,
            actual,
        });
    }
    let mut r = Reader::new(body);
    let unit = StolenUnit {
        prefix: r.words()?,
        word: r.u64()?,
    };
    r.finish()?;
    Ok(unit)
}

/// A served unit: the encoded payload plus the ack channel the requester
/// must answer after decoding (`true` = owned, `false` = corrupt, requeue).
pub struct StealReply {
    /// Length-prefixed, checksummed unit bytes.
    pub bytes: Vec<u8>,
    /// Decode acknowledgement back to the serving worker.
    pub ack: Sender<bool>,
}

/// A steal request carrying the reply channel.
pub struct StealRequest {
    /// Where to send the (optional) serialized unit.
    pub reply: Sender<Option<StealReply>>,
}

/// Shared counters of one worker's steal server, read into the
/// [`JobReport`](crate::stats::JobReport) after the job completes.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Steal requests received.
    pub requests: AtomicU64,
    /// Requests answered with a unit (the rest replied `None`).
    pub hits: AtomicU64,
    /// Serialized reply bytes shipped.
    pub bytes_served: AtomicU64,
    /// Served units that came back nacked (corrupt) or unacked (requester
    /// died) and were requeued for re-execution.
    pub requeues: AtomicU64,
}

impl ServerStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Busy-waits for `us` microseconds (sub-millisecond precision; models one
/// network hop).
pub fn spin_latency(us: u64) {
    if us == 0 {
        return;
    }
    let t0 = Instant::now();
    let target = Duration::from_micros(us);
    while t0.elapsed() < target {
        std::hint::spin_loop();
    }
}

/// Flips one payload bit of an encoded unit (fault injection). Touches the
/// word region, not the header, so framing stays plausible and only the
/// checksum can catch it.
pub fn corrupt_payload(bytes: &mut [u8]) {
    let idx = 4 + (bytes.len().saturating_sub(4 + 8)) / 2;
    if let Some(b) = bytes.get_mut(idx) {
        *b ^= 0x40;
    }
}

/// Resolves the server's unacked served units: acked-true entries are
/// forgotten, nacked or abandoned entries are requeued for re-execution
/// (their pending obligation travels with them). Under sabotage the
/// requeue is replaced by drop-with-accounting so the job still
/// terminates — with wrong results the chaos gate must catch.
fn poll_unacked(
    unacked: &mut Vec<(StolenUnit, Receiver<bool>)>,
    job: &JobState,
    stats: &ServerStats,
    fcx: &FaultCtx,
) {
    unacked.retain_mut(|(unit, ack_rx)| match ack_rx.try_recv() {
        Ok(true) => false,
        Ok(false) | Err(TryRecvError::Disconnected) => {
            // ordering: Relaxed — diagnostic counters, read after join.
            stats.requeues.fetch_add(1, Ordering::Relaxed);
            if fcx.sabotaged() {
                // ordering: Relaxed — diagnostic counter.
                fcx.ledger.units_lost.fetch_add(1, Ordering::Relaxed);
                job.sub_pending();
            } else {
                fcx.recovery
                    .push(RecoveryUnit::from_stolen(std::mem::replace(
                        unit,
                        StolenUnit {
                            prefix: Vec::new(),
                            word: 0,
                        },
                    )));
            }
            false
        }
        Err(TryRecvError::Empty) => true,
    });
}

/// The steal-server loop of one worker: serves remote requests until the
/// job is done, then drains stragglers with `None` replies.
///
/// Shutdown is two-condition: the job must be done *and* every served
/// unit must be acked/requeued — exiting earlier could strand an
/// obligation. A killed worker's server turns inert (keeps draining its
/// request channel so no requester ever parks on it, but serves nothing).
pub fn steal_server(
    registry: &WorkerRegistry,
    worker: usize,
    job: &JobState,
    rx: &Receiver<StealRequest>,
    latency_us: u64,
    stats: &ServerStats,
    fcx: &FaultCtx,
) {
    let mut unacked: Vec<(StolenUnit, Receiver<bool>)> = Vec::new();
    loop {
        poll_unacked(&mut unacked, job, stats, fcx);
        match rx.recv_timeout(Duration::from_micros(500)) {
            Ok(req) => {
                // ordering: Relaxed — diagnostic counter, read after join.
                stats.requests.fetch_add(1, Ordering::Relaxed);
                if let Some(inj) = &fcx.injector {
                    // Drop fault: never answer; the requester observes the
                    // reply channel disconnect and moves on.
                    if inj.should_drop_request(&fcx.ledger) {
                        drop(req);
                        continue;
                    }
                }
                let dead = fcx
                    .injector
                    .as_ref()
                    .is_some_and(|i| i.targets_worker(worker) && i.kill_fired());
                let unit = if dead || job.done() {
                    None
                } else {
                    steal_from_registry(registry, None, job)
                };
                let reply = unit.map(|(_victim, u)| {
                    spin_latency(latency_us);
                    let mut bytes = encode_unit(&u);
                    if let Some(inj) = &fcx.injector {
                        if inj.should_corrupt(&fcx.ledger) {
                            corrupt_payload(&mut bytes);
                        }
                    }
                    // ordering: Relaxed — diagnostic counters, read
                    // after join.
                    stats.hits.fetch_add(1, Ordering::Relaxed);
                    stats
                        .bytes_served
                        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    let (ack_tx, ack_rx) = bounded(1);
                    unacked.push((u, ack_rx));
                    StealReply { bytes, ack: ack_tx }
                });
                // A failed send means the requester abandoned its reply
                // channel; the envelope (and its ack sender) is dropped
                // here, which poll_unacked observes as a disconnect and
                // requeues the unit. Nothing is stranded either way.
                let _ = req.reply.send(reply);
            }
            Err(RecvTimeoutError::Timeout) => {
                if job.done() && unacked.is_empty() {
                    while let Ok(req) = rx.try_recv() {
                        let _ = req.reply.send(None);
                    }
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // All requesters gone; resolve outstanding acks, then exit.
                while !unacked.is_empty() {
                    poll_unacked(&mut unacked, job, stats, fcx);
                    std::thread::yield_now();
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultCtx;
    use crate::level::CoreSlot;
    use std::sync::Arc;

    fn fcx() -> Arc<FaultCtx> {
        Arc::new(FaultCtx::new(None, 1, 1))
    }

    #[test]
    fn encode_decode_roundtrip() {
        let u = StolenUnit {
            prefix: vec![1, u64::MAX, 42],
            word: 7,
        };
        assert_eq!(decode_unit(&encode_unit(&u)).unwrap(), u);
        let empty = StolenUnit {
            prefix: vec![],
            word: 0,
        };
        assert_eq!(decode_unit(&encode_unit(&empty)).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_adversarial_input_without_panicking() {
        // Empty and sub-minimum frames.
        assert!(matches!(
            decode_unit(&[]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            decode_unit(&[0u8; 19]),
            Err(DecodeError::Truncated { .. })
        ));
        // A huge declared prefix length with a short body must not
        // allocate or panic.
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        evil.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            decode_unit(&evil),
            Err(DecodeError::Truncated { .. })
        ));
        // Truncated tail of a valid message.
        let good = encode_unit(&StolenUnit {
            prefix: vec![3, 4, 5],
            word: 9,
        });
        for cut in 1..good.len() {
            assert!(
                decode_unit(&good[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0xAB);
        assert!(matches!(
            decode_unit(&padded),
            Err(DecodeError::TrailingBytes(1))
        ));
        // Every single-bit flip anywhere in the message is detected.
        for byte in 0..good.len() {
            let mut flipped = good.clone();
            flipped[byte] ^= 0x01;
            assert!(
                decode_unit(&flipped).is_err(),
                "bit flip at byte {byte} undetected"
            );
        }
    }

    #[test]
    fn max_depth_prefix_roundtrips() {
        let u = StolenUnit {
            prefix: (0..512).map(|i| i * 3).collect(),
            word: u64::MAX,
        };
        assert_eq!(decode_unit(&encode_unit(&u)).unwrap(), u);
    }

    #[test]
    fn corrupt_payload_is_checksum_detected() {
        let u = StolenUnit {
            prefix: vec![11, 22],
            word: 33,
        };
        let mut bytes = encode_unit(&u);
        corrupt_payload(&mut bytes);
        assert!(matches!(
            decode_unit(&bytes),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn try_claim_counts_uncounted_queues() {
        let job = JobState::new(1); // one pre-counted root elsewhere
        let level = LevelQueue::new(vec![9], vec![5], false);
        let w = try_claim(&level, &job).unwrap();
        assert_eq!(w, 5);
        assert_eq!(job.pending(), 2); // root + inflated steal
        job.sub_pending(); // thief finished
        job.sub_pending(); // root finished
        assert!(job.done());
    }

    #[test]
    fn try_claim_rolls_back_on_empty() {
        let job = JobState::new(1);
        let level = LevelQueue::new(vec![], vec![], false);
        assert!(try_claim(&level, &job).is_none());
        assert_eq!(job.pending(), 1);
        assert!(!job.done());
    }

    #[test]
    fn try_claim_refuses_retired_levels() {
        let job = JobState::new(1);
        let level = LevelQueue::new(vec![1], vec![5, 6], false);
        assert!(try_claim(&level, &job).is_some());
        level.retire_collect();
        assert!(try_claim(&level, &job).is_none());
        assert_eq!(job.pending(), 2); // rollback kept the count exact
    }

    #[test]
    fn counted_queue_not_inflated() {
        let job = JobState::new(2);
        let level = LevelQueue::new(vec![], vec![1, 2], true);
        assert!(try_claim(&level, &job).is_some());
        assert_eq!(job.pending(), 2); // unchanged: roots pre-counted
    }

    #[test]
    fn registry_steal_returns_prefix() {
        let job = JobState::new(1);
        let reg = WorkerRegistry {
            slots: vec![CoreSlot::new(), CoreSlot::new()],
        };
        reg.slots[1].push(Arc::new(LevelQueue::new(vec![3, 4], vec![8], false)));
        let (victim, unit) = steal_from_registry(&reg, Some(0), &job).unwrap();
        assert_eq!(victim, 1);
        assert_eq!(unit.prefix, vec![3, 4]);
        assert_eq!(unit.word, 8);
        assert!(steal_from_registry(&reg, Some(0), &job).is_none());
    }

    fn spawn_server(
        reg: Arc<WorkerRegistry>,
        job: Arc<JobState>,
        stats: Arc<ServerStats>,
        fcx: Arc<FaultCtx>,
    ) -> (
        crate::sync::channel::Sender<StealRequest>,
        std::thread::JoinHandle<()>,
    ) {
        let (tx, rx) = crate::sync::channel::unbounded::<StealRequest>();
        let h = std::thread::spawn(move || steal_server(&reg, 0, &job, &rx, 0, &stats, &fcx));
        (tx, h)
    }

    #[test]
    fn server_replies_none_when_no_work_and_exits_on_done() {
        let job = Arc::new(JobState::new(1));
        let reg = Arc::new(WorkerRegistry::new(1));
        let stats = Arc::new(ServerStats::new());
        let (tx, h) = spawn_server(reg, job.clone(), stats.clone(), fcx());
        let (rtx, rrx) = crate::sync::channel::bounded(1);
        tx.send(StealRequest { reply: rtx }).unwrap();
        assert!(rrx.recv_timeout(Duration::from_secs(2)).unwrap().is_none());
        job.sub_pending(); // -> done
        h.join().unwrap();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 1);
        assert_eq!(stats.hits.load(Ordering::Relaxed), 0);
        assert_eq!(stats.bytes_served.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn server_ships_available_work_and_collects_ack() {
        let job = Arc::new(JobState::new(1));
        let reg = Arc::new(WorkerRegistry::new(1));
        reg.slots[0].push(Arc::new(LevelQueue::new(vec![7], vec![9], false)));
        let stats = Arc::new(ServerStats::new());
        let f = fcx();
        let (tx, h) = spawn_server(reg, job.clone(), stats.clone(), f.clone());
        let (rtx, rrx) = crate::sync::channel::bounded(1);
        tx.send(StealRequest { reply: rtx }).unwrap();
        let reply = rrx.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        let unit = decode_unit(&reply.bytes).unwrap();
        reply.ack.send(true).unwrap();
        assert_eq!(
            unit,
            StolenUnit {
                prefix: vec![7],
                word: 9
            }
        );
        assert_eq!(stats.hits.load(Ordering::Relaxed), 1);
        assert!(stats.bytes_served.load(Ordering::Relaxed) > 0);
        // Requester finishes the stolen unit; job completes; server exits.
        job.sub_pending(); // the inflated stolen unit
        job.sub_pending(); // the pre-counted root
        h.join().unwrap();
        assert_eq!(stats.requeues.load(Ordering::Relaxed), 0);
        assert!(f.recovery.is_empty());
    }

    #[test]
    fn nacked_unit_is_requeued_for_recovery() {
        let job = Arc::new(JobState::new(1));
        let reg = Arc::new(WorkerRegistry::new(1));
        reg.slots[0].push(Arc::new(LevelQueue::new(vec![2], vec![4], false)));
        let stats = Arc::new(ServerStats::new());
        let f = fcx();
        let (tx, h) = spawn_server(reg, job.clone(), stats.clone(), f.clone());
        let (rtx, rrx) = crate::sync::channel::bounded(1);
        tx.send(StealRequest { reply: rtx }).unwrap();
        let reply = rrx.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        // Requester reports the payload corrupt.
        reply.ack.send(false).unwrap();
        // The server must requeue the unit; consume it like a survivor
        // core would.
        let deadline = Instant::now() + Duration::from_secs(2);
        let recovered = loop {
            if let Some(u) = f.recovery.pop() {
                break u;
            }
            assert!(Instant::now() < deadline, "unit never requeued");
            std::thread::yield_now();
        };
        assert_eq!(recovered.prefix, vec![2]);
        assert_eq!(recovered.word, 4);
        job.sub_pending(); // recovered unit processed
        job.sub_pending(); // the pre-counted root
        h.join().unwrap();
        assert_eq!(stats.requeues.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn abandoned_reply_is_requeued_not_stranded() {
        let job = Arc::new(JobState::new(1));
        let reg = Arc::new(WorkerRegistry::new(1));
        reg.slots[0].push(Arc::new(LevelQueue::new(vec![1], vec![3], false)));
        let stats = Arc::new(ServerStats::new());
        let f = fcx();
        let (tx, h) = spawn_server(reg, job.clone(), stats.clone(), f.clone());
        let (rtx, rrx) = crate::sync::channel::bounded(1);
        tx.send(StealRequest { reply: rtx }).unwrap();
        // Requester "dies" without ever reading the reply.
        drop(rrx);
        let deadline = Instant::now() + Duration::from_secs(2);
        let recovered = loop {
            if let Some(u) = f.recovery.pop() {
                break u;
            }
            assert!(Instant::now() < deadline, "abandoned unit never requeued");
            std::thread::yield_now();
        };
        assert_eq!(
            (recovered.prefix.as_slice(), recovered.word),
            (&[1u64][..], 3)
        );
        job.sub_pending();
        job.sub_pending();
        h.join().unwrap();
    }

    /// Regression (shutdown): a request that lands while/after the job
    /// flips `done` must still be answered (`None` or a disconnect), never
    /// parked forever.
    #[test]
    fn late_request_after_done_is_answered_promptly() {
        let job = Arc::new(JobState::new(1));
        let reg = Arc::new(WorkerRegistry::new(1));
        let stats = Arc::new(ServerStats::new());
        let (tx, h) = spawn_server(reg, job.clone(), stats, fcx());
        job.sub_pending(); // done before any request arrives
                           // Race a request against the server's drain-and-exit.
        let (rtx, rrx) = crate::sync::channel::bounded(1);
        let sent = tx.send(StealRequest { reply: rtx }).is_ok();
        // Whether or not the send won the race, the requester-side wait
        // terminates quickly: a None reply, or a disconnect once the
        // server (then the channel) is gone.
        if sent {
            match rrx.recv_timeout(Duration::from_secs(2)) {
                Ok(reply) => assert!(reply.is_none(), "no work can be served after done"),
                Err(RecvTimeoutError::Disconnected) => {}
                Err(RecvTimeoutError::Timeout) => panic!("late requester parked forever"),
            }
        }
        drop(tx); // disconnect -> server exits even mid-drain
        h.join().unwrap();
    }
}
