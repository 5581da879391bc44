//! Always-on mirror models of the workspace's lock-free protocols.
//!
//! These encode the same invariants as the cfg-gated model tests against
//! the real structures (`crates/check/tests/`), but against small local
//! mirrors built from the instrumented [`crate::sync`] types, so they run
//! in every plain `cargo test` and power the `fractal check` CLI
//! subcommand. Entries marked `expect_failure` are checker
//! self-validation: the mirror deliberately contains a known bug (e.g.
//! the pre-PR-2 unclamped `remaining()` read) and the suite asserts the
//! checker *finds* it and that replaying the reported schedule reproduces
//! it.

use crate::sync::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Mutex, Ordering};
use crate::{thread, Builder, Failure, FailureKind, Report};
use std::sync::Arc;

/// Outcome of one suite entry.
pub struct ModelRun {
    /// Stable name, e.g. `queue.claim_exclusive`.
    pub name: &'static str,
    /// Whether this entry validates that the checker catches a planted
    /// bug (true) or proves a protocol correct (false).
    pub expect_failure: bool,
    /// Exploration statistics (for `expect_failure` entries: executions
    /// explored until the bug surfaced).
    pub executions: u64,
    pub steps: u64,
    pub pruned: u64,
    /// The failing schedule for `expect_failure` entries.
    pub schedule: Option<String>,
}

fn pass(name: &'static str, r: Report) -> ModelRun {
    assert!(!r.capped, "{name}: exploration hit the execution cap");
    ModelRun {
        name,
        expect_failure: false,
        executions: r.executions,
        steps: r.steps,
        pruned: r.pruned,
        schedule: None,
    }
}

fn caught(name: &'static str, f: Failure) -> ModelRun {
    ModelRun {
        name,
        expect_failure: true,
        executions: f.executions,
        steps: 0,
        pruned: 0,
        schedule: Some(f.schedule),
    }
}

fn builder(bound: Option<usize>) -> Builder {
    match bound {
        Some(b) => Builder::new().preemption_bound(b),
        None => Builder::new().unbounded(),
    }
}

// ---------------------------------------------------------------------------
// SharedQueue / ExtensionQueue cursor protocol
// ---------------------------------------------------------------------------

/// Mirror of `ExtensionQueue::claim`: two workers drain a 3-item queue
/// through one `fetch_add` cursor. Invariant: every item claimed exactly
/// once, and the clamped `remaining()` never exceeds the length.
pub fn queue_claim_exclusive(bound: Option<usize>) -> Result<Report, Failure> {
    const LEN: usize = 4;
    builder(bound).check(|| {
        let cursor = Arc::new(AtomicUsize::new(0));
        let taken = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (cursor, taken) = (cursor.clone(), taken.clone());
                thread::spawn(move || {
                    loop {
                        // ordering: mirror of ExtensionQueue::claim — the
                        // RMW is the sole synchronization-free claim point;
                        // items are immutable behind an Arc.
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= LEN {
                            break;
                        }
                        taken.lock().push(idx);
                    }
                    // ordering: mirror of the clamped remaining() read.
                    let claimed = cursor.load(Ordering::Relaxed).min(LEN);
                    assert!(LEN - claimed <= LEN);
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let mut taken = taken.lock().clone();
        taken.sort_unstable();
        assert_eq!(
            taken,
            vec![0, 1, 2, 3],
            "claims lost or duplicated: {taken:?}"
        );
    })
}

/// The model body for the pre-PR-2 `remaining()` bug: the clamp is
/// reverted, so a concurrent observer computing `len - cursor` wraps in
/// interleavings where the drain has overshot the cursor. A named `fn`
/// so the suite can both `check` it and `replay` the found schedule.
fn remaining_unclamped_body() {
    const LEN: usize = 1;
    let cursor = Arc::new(AtomicUsize::new(0));
    let worker = {
        let cursor = cursor.clone();
        thread::spawn(move || {
            // Drain until empty — the final claim overshoots the cursor
            // past LEN, exactly like ExtensionQueue::claim.
            // ordering: mirror of the claim RMW (see claim_exclusive).
            while cursor.fetch_add(1, Ordering::Relaxed) < LEN {}
        })
    };
    let observer = {
        let cursor = cursor.clone();
        thread::spawn(move || {
            // ordering: mirror of the racy remaining() snapshot read.
            let claimed = cursor.load(Ordering::Relaxed); // BUG: no .min(LEN)
            let remaining = LEN.wrapping_sub(claimed);
            assert!(
                remaining <= LEN,
                "remaining() wrapped: cursor overshot to {claimed}"
            );
        })
    };
    worker.join();
    observer.join();
}

/// Checker self-validation: the checker must find the interleaving in
/// which the unclamped `remaining()` read wraps.
pub fn queue_remaining_unclamped(bound: Option<usize>) -> Result<Report, Failure> {
    builder(bound).check(remaining_unclamped_body)
}

// ---------------------------------------------------------------------------
// Relaxed-visibility validation (message passing)
// ---------------------------------------------------------------------------

/// Checker self-validation: publishing data with a `Relaxed` flag lets
/// the consumer observe the flag without the data (stale read). A purely
/// sequentially-consistent checker can never fail this model; ours must.
pub fn stale_read_relaxed(bound: Option<usize>) -> Result<Report, Failure> {
    builder(bound).check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let ready = Arc::new(AtomicBool::new(false));
        let producer = {
            let (data, ready) = (data.clone(), ready.clone());
            thread::spawn(move || {
                // ordering: deliberately wrong — publication needs Release.
                data.store(42, Ordering::Relaxed);
                ready.store(true, Ordering::Relaxed);
            })
        };
        let consumer = {
            let (data, ready) = (data.clone(), ready.clone());
            thread::spawn(move || {
                // ordering: deliberately wrong — consumption needs Acquire.
                if ready.load(Ordering::Relaxed) {
                    assert_eq!(data.load(Ordering::Relaxed), 42, "stale data read");
                }
            })
        };
        producer.join();
        consumer.join();
    })
}

/// The correct release/acquire version of the same protocol must pass.
pub fn message_passing_release_acquire(bound: Option<usize>) -> Result<Report, Failure> {
    builder(bound).check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let ready = Arc::new(AtomicBool::new(false));
        let producer = {
            let (data, ready) = (data.clone(), ready.clone());
            thread::spawn(move || {
                // ordering: data first, then Release-publish the flag.
                data.store(42, Ordering::Relaxed);
                ready.store(true, Ordering::Release);
            })
        };
        let consumer = {
            let (data, ready) = (data.clone(), ready.clone());
            thread::spawn(move || {
                if ready.load(Ordering::Acquire) {
                    // ordering: the Acquire above synchronizes with the
                    // producer's Release, making the data store visible.
                    assert_eq!(data.load(Ordering::Relaxed), 42);
                }
            })
        };
        producer.join();
        consumer.join();
    })
}

// ---------------------------------------------------------------------------
// Obligation transfer (pending / done exact termination)
// ---------------------------------------------------------------------------

/// Mirror of the `JobState` obligation protocol from
/// `crates/runtime/src/executor.rs` with a thief inflating `pending`
/// before claiming from an uncounted level (steal.rs `try_claim`).
/// Invariants: work executes exactly once, `done` flips only after the
/// last obligation settles, and `pending` never goes negative.
pub fn obligation_transfer(bound: Option<usize>) -> Result<Report, Failure> {
    builder(bound).check(|| {
        // One counted root that expands into one uncounted unit.
        let pending = Arc::new(AtomicI64::new(1));
        let done = Arc::new(AtomicBool::new(false));
        let cursor = Arc::new(AtomicUsize::new(0)); // uncounted level, 1 unit
        let executed = Arc::new(AtomicUsize::new(0));

        let sub_pending = |pending: &AtomicI64, done: &AtomicBool| {
            // ordering: mirror of JobState::sub_pending — SeqCst so the
            // 1 -> 0 transition and the done flip form a total order. The
            // done store is deliberately idempotent, exactly like the real
            // protocol: a late thief that inflates 0 -> 1 after
            // termination and rolls back re-stores `done`, benignly.
            let prev = pending.fetch_sub(1, Ordering::SeqCst);
            assert!(prev > 0, "pending went negative (lost obligation)");
            if prev == 1 {
                done.store(true, Ordering::SeqCst);
            }
        };
        let execute = |executed: &AtomicUsize, done: &AtomicBool| {
            // The core safety property of exact termination: no unit may
            // run after `done` has been declared — a waiter that saw
            // `done` must never race in-flight work.
            assert!(
                !done.load(Ordering::SeqCst),
                "unit executed after done was declared"
            );
            executed.fetch_add(1, Ordering::Relaxed);
        };

        let owner = {
            let (pending, done, cursor, executed) = (
                pending.clone(),
                done.clone(),
                cursor.clone(),
                executed.clone(),
            );
            thread::spawn(move || {
                // Owner processes the root: tries to also drain its own
                // uncounted level, inflating per unit like try_claim.
                // ordering: inflation must precede the claim (SeqCst pair).
                pending.fetch_add(1, Ordering::SeqCst);
                // ordering: claim RMW; see queue.claim_exclusive.
                if cursor.fetch_add(1, Ordering::Relaxed) < 1 {
                    execute(&executed, &done);
                }
                // Settle the inflation (claimed unit processed, or
                // rollback because the thief drained the level first).
                sub_pending(&pending, &done);
                // Root itself completes.
                execute(&executed, &done);
                sub_pending(&pending, &done);
            })
        };
        let thief = {
            let (pending, done, cursor, executed) = (
                pending.clone(),
                done.clone(),
                cursor.clone(),
                executed.clone(),
            );
            thread::spawn(move || {
                // ordering: thief inflates before claiming (try_claim).
                pending.fetch_add(1, Ordering::SeqCst);
                assert!(
                    !done.load(Ordering::SeqCst) || cursor.load(Ordering::Relaxed) >= 1,
                    "done observed while uncounted work was still claimable"
                );
                // ordering: claim RMW; see queue.claim_exclusive.
                if cursor.fetch_add(1, Ordering::Relaxed) < 1 {
                    execute(&executed, &done);
                }
                sub_pending(&pending, &done);
            })
        };
        owner.join();
        thief.join();
        assert!(done.load(Ordering::SeqCst), "job never terminated");
        assert_eq!(pending.load(Ordering::SeqCst), 0);
        assert_eq!(
            executed.load(Ordering::Relaxed),
            2,
            "root + unit must each execute exactly once"
        );
    })
}

/// Mirror of the watchdog-reconciliation path from PR 3: a core dies
/// mid-unit; the watchdog re-queues the in-flight unit into a recovery
/// queue exactly once (CAS-guarded), a surviving thief drains it, and
/// the obligation still settles exactly once.
pub fn watchdog_reconcile(bound: Option<usize>) -> Result<Report, Failure> {
    builder(bound).check(|| {
        let pending = Arc::new(AtomicI64::new(1));
        let done = Arc::new(AtomicBool::new(false));
        let dead = Arc::new(AtomicBool::new(false));
        let reconciled = Arc::new(AtomicBool::new(false));
        let recovery = Arc::new(Mutex::new(Vec::new()));
        let executed = Arc::new(AtomicUsize::new(0));

        let dying_core = {
            let dead = dead.clone();
            thread::spawn(move || {
                // Fail-stop while holding the in-flight unit: never calls
                // sub_pending. ordering: SeqCst fail-stop flag (mirror of
                // CoreHealth::dead).
                dead.store(true, Ordering::SeqCst);
            })
        };
        let watchdog = {
            let (dead, reconciled, recovery) = (dead.clone(), reconciled.clone(), recovery.clone());
            thread::spawn(move || {
                // ordering: SeqCst read of the fail-stop flag.
                if dead.load(Ordering::SeqCst) {
                    // ordering: the CAS guarantees a unit is re-queued at
                    // most once even if the watchdog fires repeatedly.
                    if reconciled
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        recovery.lock().push(0u64);
                    }
                }
            })
        };
        let thief = {
            let (pending, done, recovery, executed) = (
                pending.clone(),
                done.clone(),
                recovery.clone(),
                executed.clone(),
            );
            thread::spawn(move || {
                if let Some(_unit) = recovery.lock().pop() {
                    executed.fetch_add(1, Ordering::Relaxed);
                    // ordering: mirror of JobState::sub_pending (SeqCst).
                    let prev = pending.fetch_sub(1, Ordering::SeqCst);
                    assert!(prev > 0, "pending went negative");
                    if prev == 1 {
                        done.store(true, Ordering::SeqCst);
                    }
                }
            })
        };
        dying_core.join();
        watchdog.join();
        thief.join();
        // The unit must never execute twice, and if it was recovered and
        // executed, the job must have terminated.
        let execs = executed.load(Ordering::Relaxed);
        assert!(execs <= 1, "recovered unit executed {execs} times");
        if execs == 1 {
            assert!(done.load(Ordering::SeqCst));
            assert_eq!(pending.load(Ordering::SeqCst), 0);
        } else {
            assert!(!done.load(Ordering::SeqCst));
        }
    })
}

// ---------------------------------------------------------------------------
// Trace tap ring (single-writer, concurrent reader)
// ---------------------------------------------------------------------------

const TAG_SHIFT: u32 = 48;
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;

fn pack(generation: u64, payload: u64) -> u64 {
    ((generation & 0xFFFF) << TAG_SHIFT) | (payload & PAYLOAD_MASK)
}

/// Mirror of `TraceTap`: a capacity-2 single-writer ring whose slot
/// words each embed the record's generation tag, published by a Release
/// store of the head. The reader validates tags instead of relying on
/// ordering, so a wrapped (overwritten) slot is *rejected*, never
/// returned torn. Invariant: every accepted record is coherent.
pub fn ring_tagged(bound: Option<usize>) -> Result<Report, Failure> {
    const CAP: u64 = 2;
    const RECORDS: u64 = 6;
    builder(bound).check(|| {
        let a: Arc<[AtomicU64; CAP as usize]> = Arc::new(Default::default());
        let b: Arc<[AtomicU64; CAP as usize]> = Arc::new(Default::default());
        let head = Arc::new(AtomicU64::new(0));
        let writer = {
            let (a, b, head) = (a.clone(), b.clone(), head.clone());
            thread::spawn(move || {
                for i in 0..RECORDS {
                    let slot = (i % CAP) as usize;
                    let generation = i / CAP + 1; // 0 = empty
                                                  // ordering: slot halves are Relaxed — the tag check on
                                                  // the reader side detects torn/stale pairs without
                                                  // needing per-word ordering.
                    a[slot].store(pack(generation, i), Ordering::Relaxed);
                    b[slot].store(pack(generation, i ^ 0xABCD), Ordering::Relaxed);
                    // ordering: Release publish pairs with the reader's
                    // Acquire head load.
                    head.store(i + 1, Ordering::Release);
                }
            })
        };
        let reader = {
            let (a, b, head) = (a.clone(), b.clone(), head.clone());
            thread::spawn(move || {
                // ordering: Acquire pairs with the writer's Release.
                let h = head.load(Ordering::Acquire);
                if h == 0 {
                    return;
                }
                let i = h - 1;
                let slot = (i % CAP) as usize;
                let generation = i / CAP + 1;
                // ordering: Relaxed reads validated by the embedded tags.
                let va = a[slot].load(Ordering::Relaxed);
                let vb = b[slot].load(Ordering::Relaxed);
                if va >> TAG_SHIFT == generation & 0xFFFF && vb >> TAG_SHIFT == generation & 0xFFFF
                {
                    // Accepted record must be coherent.
                    assert_eq!(
                        vb & PAYLOAD_MASK,
                        (va & PAYLOAD_MASK) ^ 0xABCD,
                        "tap ring returned a torn record"
                    );
                }
            })
        };
        writer.join();
        reader.join();
    })
}

/// Checker self-validation: the same ring without tags and with a
/// Relaxed head publish returns torn/stale records; the checker must
/// find one.
pub fn ring_untagged(bound: Option<usize>) -> Result<Report, Failure> {
    builder(bound).check(|| {
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let head = Arc::new(AtomicU64::new(0));
        let writer = {
            let (a, b, head) = (a.clone(), b.clone(), head.clone());
            thread::spawn(move || {
                // ordering: deliberately wrong — no tags, Relaxed publish.
                a.store(7, Ordering::Relaxed);
                b.store(7 ^ 0xABCD, Ordering::Relaxed);
                head.store(1, Ordering::Relaxed);
            })
        };
        let reader = {
            let (a, b, head) = (a.clone(), b.clone(), head.clone());
            thread::spawn(move || {
                // ordering: deliberately wrong — mirror of the broken ring.
                if head.load(Ordering::Relaxed) == 1 {
                    let va = a.load(Ordering::Relaxed);
                    let vb = b.load(Ordering::Relaxed);
                    assert_eq!(vb, va ^ 0xABCD, "torn record: a={va} b={vb}");
                }
            })
        };
        writer.join();
        reader.join();
    })
}

// ---------------------------------------------------------------------------
// Aggregation stage / drain / abort
// ---------------------------------------------------------------------------

/// Mirror of the replay-safe aggregation path in
/// `crates/core/src/engine.rs`: workers accumulate into private staged
/// deltas, commit them into the durable store under a mutex when the
/// unit retires, and *reset* them when the unit aborts (fault replay).
/// Invariant: aborted deltas never reach the durable store; committed
/// ones land exactly once.
pub fn agg_stage_drain_abort(bound: Option<usize>) -> Result<Report, Failure> {
    builder(bound).check(|| {
        let durable = Arc::new(Mutex::new(0i64));
        let committed = Arc::new(AtomicI64::new(0));

        // Worker 1 processes a unit worth 5 and commits it.
        let w1 = {
            let (durable, committed) = (durable.clone(), committed.clone());
            thread::spawn(move || {
                let mut staged = 0i64;
                staged += 5;
                // Commit on retire: drain staged into durable.
                *durable.lock() += staged;
                // ordering: count of successfully committed units; the
                // mutex above orders the actual data.
                committed.fetch_add(staged, Ordering::Relaxed);
            })
        };
        // Worker 2 processes a unit worth 7, aborts (fault), then
        // replays it and commits once.
        let w2 = {
            let (durable, committed) = (durable.clone(), committed.clone());
            thread::spawn(move || {
                let mut staged = 0i64;
                staged += 7;
                // Abort: the unit is torn down before retiring; staged
                // deltas must be discarded, not drained (mirror of
                // abort_unit's reset of the staged shard).
                assert_eq!(std::mem::take(&mut staged), 7);
                // Replay of the same unit.
                staged += 7;
                *durable.lock() += staged;
                committed.fetch_add(staged, Ordering::Relaxed);
            })
        };
        w1.join();
        w2.join();
        let total = *durable.lock();
        assert_eq!(total, 12, "aborted delta leaked into the durable store");
        assert_eq!(committed.load(Ordering::Relaxed), total);
    })
}

// ---------------------------------------------------------------------------
// Suite driver
// ---------------------------------------------------------------------------

/// Runs the full mirror suite. Entries that plant a bug assert the
/// checker catches it *and* that replaying the reported schedule
/// reproduces the same failure; entries that encode a correct protocol
/// assert exhaustive (within the bound) exploration finds nothing.
pub fn run_all(bound: Option<usize>) -> Vec<ModelRun> {
    let mut out = Vec::new();

    out.push(pass(
        "queue.claim_exclusive",
        queue_claim_exclusive(bound).expect("claim protocol must pass"),
    ));
    out.push({
        let failure =
            queue_remaining_unclamped(bound).expect_err("checker must catch unclamped remaining()");
        assert!(
            matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("remaining() wrapped")),
            "unexpected failure: {failure}"
        );
        // The schedule string must reproduce the exact interleaving: one
        // replayed execution, same failure.
        let replayed = Builder::new()
            .replay(&failure.schedule, remaining_unclamped_body)
            .expect_err("replaying the schedule must reproduce the race");
        assert_eq!(replayed.executions, 1, "replay must be a single execution");
        assert!(
            matches!(replayed.kind, FailureKind::Panic(ref m) if m.contains("remaining() wrapped")),
            "replay reproduced a different failure: {replayed}"
        );
        caught("queue.remaining_unclamped", failure)
    });

    out.push({
        let failure = stale_read_relaxed(bound).expect_err("checker must find the stale read");
        assert!(
            matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("stale data read")),
            "unexpected failure: {failure}"
        );
        caught("visibility.stale_read_relaxed", failure)
    });
    out.push(pass(
        "visibility.message_passing_release_acquire",
        message_passing_release_acquire(bound).expect("release/acquire publication must pass"),
    ));

    out.push(pass(
        "steal.obligation_transfer",
        obligation_transfer(bound).expect("obligation protocol must pass"),
    ));
    out.push(pass(
        "steal.watchdog_reconcile",
        watchdog_reconcile(bound).expect("reconciliation protocol must pass"),
    ));

    out.push(pass(
        "trace.ring_tagged",
        ring_tagged(bound).expect("tagged tap ring must pass"),
    ));
    out.push({
        let failure = ring_untagged(bound).expect_err("checker must find the torn record");
        assert!(
            matches!(failure.kind, FailureKind::Panic(ref m) if m.contains("torn record")),
            "unexpected failure: {failure}"
        );
        caught("trace.ring_untagged", failure)
    });

    out.push(pass(
        "agg.stage_drain_abort",
        agg_stage_drain_abort(bound).expect("staged aggregation must pass"),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_suite_default_bound() {
        let runs = run_all(Some(2));
        assert_eq!(runs.len(), 9);
        let mut total = 0;
        for r in &runs {
            assert!(r.executions > 0, "{} explored nothing", r.name);
            if r.expect_failure {
                assert!(r.schedule.is_some(), "{} lost its schedule", r.name);
            }
            println!(
                "{: <40} executions={} pruned={}",
                r.name, r.executions, r.pruned
            );
            total += r.executions;
        }
        println!("total interleavings explored: {total}");
        assert!(
            total >= 10_000,
            "suite explored only {total} interleavings under the default bound"
        );
    }

    #[test]
    #[ignore = "exhaustive, minutes in debug: run with -- --ignored"]
    fn passing_models_also_pass_unbounded() {
        queue_claim_exclusive(None).expect("claim protocol (unbounded)");
        message_passing_release_acquire(None).expect("release/acquire (unbounded)");
        obligation_transfer(None).expect("obligation transfer (unbounded)");
        watchdog_reconcile(None).expect("watchdog reconcile (unbounded)");
        ring_tagged(None).expect("tagged ring (unbounded)");
        agg_stage_drain_abort(None).expect("staged aggregation (unbounded)");
    }
}
