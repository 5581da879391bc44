//! Model checks against the real product structures.
//!
//! These tests only exist when the whole workspace is built with
//! `RUSTFLAGS="--cfg fractal_check"`: the [`fractal_check::facade`]
//! then resolves to the instrumented primitives, so every atomic and
//! mutex operation inside `fractal-enum` / `fractal-runtime` /
//! `fractal-core` yields to the DFS scheduler. In normal builds this
//! file compiles to nothing, and `tests/instrumented.rs` builds and runs
//! it under that cfg instead, in its own target directory. By hand:
//!
//! ```text
//! RUSTFLAGS="--cfg fractal_check" CARGO_TARGET_DIR=target/model-check \
//!     cargo test -p fractal-check --test real_structures
//! ```
#![cfg(fractal_check)]

use fractal_check::sync::{AtomicU64 as ModelAtomicU64, Mutex as ModelMutex, Ordering};
use fractal_check::{model, thread};
use fractal_core::{AggShard, Aggregator};
use fractal_enum::queue::ExtensionQueue;
use fractal_runtime::executor::JobState;
use fractal_runtime::level::LevelQueue;
use fractal_runtime::steal::try_claim;
use fractal_runtime::trace::{EventKind, TraceTap};
use std::sync::Arc;

/// Two thieves race `ExtensionQueue::claim` on a two-word queue: every
/// word is claimed exactly once, and the racy `remaining()` snapshot
/// never wraps past the queue length even while the cursor overshoots.
#[test]
fn extension_queue_claims_are_exclusive() {
    model(|| {
        let q = Arc::new(ExtensionQueue::new(vec![10, 11]));
        let taken = Arc::new(ModelMutex::new(Vec::new()));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (q, taken) = (q.clone(), taken.clone());
                thread::spawn(move || {
                    while let Some(w) = q.claim() {
                        taken.lock().push(w);
                    }
                    // The snapshot is racy but clamped: it may overstate
                    // remaining work, never understate past zero or wrap.
                    assert!(q.remaining() <= q.len(), "remaining() wrapped");
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let mut taken = std::mem::take(&mut *taken.lock());
        taken.sort_unstable();
        assert_eq!(taken, vec![10, 11], "a word was lost or claimed twice");
        assert_eq!(q.remaining(), 0);
    });
}

/// The PR-2 regression, against the real structure this time: even with
/// both thieves driving the cursor past the end, the clamped `claimed()`
/// keeps `remaining()` subtraction-safe in every interleaving.
#[test]
fn extension_queue_remaining_never_exceeds_len() {
    model(|| {
        let q = Arc::new(ExtensionQueue::new(vec![7]));
        let claimers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    // Overshoot on purpose: claim until two Nones.
                    let _ = q.claim();
                    let _ = q.claim();
                })
            })
            .collect();
        // Observer (main thread) samples the snapshot mid-race.
        assert!(q.remaining() <= q.len());
        for c in claimers {
            c.join();
        }
        assert_eq!(q.claimed(), 1, "clamp failed: cursor leaked through");
        assert_eq!(q.remaining(), 0);
    });
}

/// A thief races `try_claim` against the owner on a one-extension
/// *uncounted* level; the owner drains its own level and then settles
/// the counted root. The pending-obligation protocol must hand the
/// single unit to exactly one claimer, keep `pending` non-negative, and
/// declare `done` only after both the root and the stolen unit settled
/// — never while work is still in flight.
///
/// Protocol contract (and the bug the checker catches if you break it):
/// a level is only claimable while its owning unit is in flight, so the
/// owner must attempt its own drain *before* `sub_pending`-ing the root.
/// Settling the root first lets a late thief claim — and execute — a
/// unit after `done` was declared; the checker finds that interleaving
/// within one execution.
#[test]
fn try_claim_transfers_obligation_exactly_once() {
    model(|| {
        let job = Arc::new(JobState::new(1)); // one counted root
        let level = Arc::new(LevelQueue::new(vec![1], vec![42], false));
        let wins = Arc::new(ModelAtomicU64::new(0));

        let claim_and_run = |job: &JobState, level: &LevelQueue, wins: &ModelAtomicU64| {
            if let Some(w) = try_claim(level, job) {
                assert_eq!(w, 42);
                // Processing the claimed unit: done must not have been
                // declared while we hold an obligation.
                assert!(!job.done(), "unit executed after done");
                // ordering: model-local win counter (RMW).
                wins.fetch_add(1, Ordering::Relaxed);
                job.sub_pending();
            }
        };

        let thief = {
            let (job, level, wins) = (job.clone(), level.clone(), wins.clone());
            thread::spawn(move || claim_and_run(&job, &level, &wins))
        };
        // Owner: drain own level first, then settle the counted root —
        // the order the real unit lifecycle guarantees.
        claim_and_run(&job, &level, &wins);
        job.sub_pending();
        thief.join();
        assert!(job.done(), "all obligations settled but done never flipped");
        assert_eq!(job.pending(), 0);
        // ordering: read after joins.
        assert_eq!(
            wins.load(Ordering::Relaxed),
            1,
            "unit claimed twice or lost"
        );
    });
}

/// A wedged-core drain: the single writer publishes through a capacity-2
/// tap while a concurrent reader (the watchdog) reads every index. The
/// generation tags must make each returned record exactly one of the
/// published records for that index — torn or recycled slots come back
/// as `None`, never as a frankenstein record.
#[test]
fn trace_tap_never_returns_torn_records() {
    // Each publish is 4 model ops and each read 3, so the schedule space
    // is deep: unbounded, it overruns the execution cap.
    model(|| {
        let tap = Arc::new(TraceTap::new(2));
        let writer = {
            let tap = tap.clone();
            thread::spawn(move || {
                for i in 0..3u64 {
                    tap.publish(EventKind::TaskClaim, i, i * 7);
                }
            })
        };
        let reader = {
            let tap = tap.clone();
            thread::spawn(move || {
                for i in 0..3u64 {
                    if let Some(rec) = tap.read(i) {
                        assert_eq!(rec.kind, EventKind::TaskClaim);
                        assert_eq!(rec.a, i, "record index and payload disagree");
                        assert_eq!(rec.b, i * 7, "torn record: words from different publishes");
                    }
                }
            })
        };
        writer.join();
        reader.join();
        // Quiescent: all three records readable... except slot 0's
        // first record, overwritten by record 2 (capacity 2).
        assert!(
            tap.read(0).is_none(),
            "overwritten record must not resurface"
        );
        assert_eq!(tap.read(2).map(|r| (r.a, r.b)), Some((2, 14)));
    });
}

/// A thief races `try_claim` on an uncounted two-word level while the
/// reconciler retires the level (`retire_collect`, as a failed unit's
/// teardown and `reconcile_core` do) and then drains what is left, as
/// the owning unit's re-execution would. The steal log's one lock makes
/// claim-vs-retire atomic, so: each word is taken exactly once, by the
/// thief or by the drain; the thief's words are exactly the collected
/// replay-exclusion set; no word is held after `done`; and `pending`
/// never goes negative (`sub_pending` asserts it) and settles at 0.
#[test]
fn retirement_collects_exactly_the_thief_claims() {
    model(|| {
        let job = Arc::new(JobState::new(1)); // the owning unit
        let level = Arc::new(LevelQueue::new(vec![1], vec![10, 11], false));
        let thief = {
            let (job, level) = (job.clone(), level.clone());
            thread::spawn(move || {
                let mut took = Vec::new();
                while let Some(w) = try_claim(&level, &job) {
                    assert!(!job.done(), "word {w} held after done");
                    took.push(w);
                    job.sub_pending();
                }
                took
            })
        };
        let collected = level.retire_collect();
        let mut drained = Vec::new();
        while let Some(w) = level.queue.claim() {
            drained.push(w);
        }
        job.sub_pending(); // the owning unit's re-execution settles
        let took = thief.join();
        assert_eq!(took, collected, "retirement collected the wrong words");
        let mut all = [took, drained].concat();
        all.sort_unstable();
        assert_eq!(all, vec![10, 11], "a word was lost or taken twice");
        assert!(job.done());
        assert_eq!(job.pending(), 0);
    });
}

/// Two workers commit their aggregation shards through the engine's
/// `finish()` protocol — lock the shared slot, merge-or-install — while
/// bumping the shared result counter. In every interleaving the merged
/// map must reduce both contributions (no lost update) and the counter
/// must equal the sum of per-worker counts.
#[test]
fn aggregation_merge_commit_loses_nothing() {
    model(|| {
        let agg: Arc<Aggregator<u64, u64>> =
            Arc::new(Aggregator::new("m", |_| 0u64, |_| 0u64, |acc, v| *acc += v));
        let merged: Arc<ModelMutex<Option<Box<dyn AggShard>>>> = Arc::new(ModelMutex::new(None));
        let counter = Arc::new(ModelAtomicU64::new(0));

        let workers: Vec<_> = [(1u64, 10u64), (1u64, 32u64)]
            .into_iter()
            .map(|(k, v)| {
                let (agg, merged, counter) = (agg.clone(), merged.clone(), counter.clone());
                thread::spawn(move || {
                    let shard = agg.shard_from_map([(k, v)].into_iter().collect());
                    let mut slot = merged.lock();
                    match &mut *slot {
                        Some(acc) => acc.merge_from(shard),
                        none => *none = Some(shard),
                    }
                    drop(slot);
                    // ordering: as StepSpec.counter: fetch_add
                    // atomicity suffices, read after join.
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let shard = merged.lock().take().expect("no shard committed");
        let map = Aggregator::<u64, u64>::take_map(shard);
        assert_eq!(map.get(&1), Some(&42), "a merge lost a contribution");
        // ordering: read after joins.
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    });
}
