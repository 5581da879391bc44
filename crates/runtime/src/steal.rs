//! The steal protocol: claim semantics and the stolen-unit wire format.
//!
//! Every in-process steal is a direct claim ([`try_claim`]) on another
//! core's level queues. An internal steal scans the thief's own worker;
//! an external steal (Fig. 6c/9b) scans another worker's registry, pays
//! the simulated network latency once on a hit, and is accounted at the
//! size of the `(prefix, word)` unit it would occupy on the wire. "A
//! subgraph enumerator (prefix) represents a unique independent piece of
//! work that can be shipped to any worker" (§4.2): [`encode_unit`] and
//! [`decode_unit`] are that unit's length-prefixed, checksummed format,
//! which `fractal-net` ships in its `StealReply` frames (acked or nacked
//! by the thief, DESIGN.md §10).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::executor::JobState;
use crate::level::{LevelQueue, WorkerRegistry};
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

impl StolenUnit {
    /// Bytes of the unit's [`encode_unit`] form: the `u32` prefix length,
    /// the prefix words, the word and the checksum.
    pub fn wire_len(&self) -> usize {
        4 + 8 * (self.prefix.len() + 2)
    }
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
    let mut w = Writer::with_capacity(unit.wire_len());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::CoreSlot;
    use std::sync::Arc;

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
        // One bit of the word region: the framing stays plausible, so
        // only the checksum can catch it.
        let mid = 4 + (bytes.len() - 12) / 2;
        bytes[mid] ^= 0x40;
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
}
