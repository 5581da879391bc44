//! The checker's self-tests: small models that each plant a known bug.
//! The checker must find every one, and the schedule it reports must
//! replay to the same failure in a single execution. The stale read is
//! paired with its release/acquire twin, which must pass, so a checker
//! that failed every model of the protocol would not pass either.

use fractal_check::sync::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use fractal_check::{model, thread, Builder, FailureKind};
use std::sync::Arc;

/// Explores `body`, asserts the checker fails it with a panic naming
/// `expected`, and replays the reported schedule to the same panic in
/// one execution.
fn assert_caught_and_replayed(body: fn(), expected: &str) {
    let names_it =
        |kind: &FailureKind| matches!(kind, FailureKind::Panic(m) if m.contains(expected));
    let failure = Builder::new()
        .check(body)
        .expect_err("the checker missed the planted bug");
    assert!(names_it(&failure.kind), "unexpected failure: {failure}");
    let replayed = Builder::new()
        .replay(&failure.schedule, body)
        .expect_err("replaying the schedule did not reproduce the failure");
    assert_eq!(replayed.executions, 1, "replay must be a single execution");
    assert!(
        names_it(&replayed.kind),
        "replay reproduced a different failure: {replayed}"
    );
}

/// `ExtensionQueue::remaining()` without its clamp: a worker drains a
/// one-word queue, its last claim overshooting the cursor, while an
/// observer computes `len - cursor` and wraps.
fn remaining_unclamped() {
    const LEN: usize = 1;
    let cursor = Arc::new(AtomicUsize::new(0));
    let worker = {
        let cursor = cursor.clone();
        // ordering: the claim is one RMW, as in ExtensionQueue::claim.
        thread::spawn(move || while cursor.fetch_add(1, Ordering::Relaxed) < LEN {})
    };
    let observer = {
        let cursor = cursor.clone();
        thread::spawn(move || {
            // ordering: the racy snapshot read of remaining().
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

#[test]
fn unclamped_remaining_is_caught_and_replayed() {
    assert_caught_and_replayed(remaining_unclamped, "remaining() wrapped");
}

/// Message passing: the producer stores data then raises a flag, the
/// consumer reads the data once it sees the flag. `publish` and `consume`
/// are the flag's store and load orderings.
fn message_passing(publish: Ordering, consume: Ordering) {
    let data = Arc::new(AtomicU64::new(0));
    let ready = Arc::new(AtomicBool::new(false));
    let producer = {
        let (data, ready) = (data.clone(), ready.clone());
        thread::spawn(move || {
            // ordering: the data word rides on the flag's publication.
            data.store(42, Ordering::Relaxed);
            ready.store(true, publish);
        })
    };
    let consumer = {
        let (data, ready) = (data.clone(), ready.clone());
        thread::spawn(move || {
            if ready.load(consume) {
                // ordering: visible only if the flag synchronised.
                assert_eq!(data.load(Ordering::Relaxed), 42, "stale data read");
            }
        })
    };
    producer.join();
    consumer.join();
}

/// A `Relaxed` flag publishes nothing: the consumer can see the flag and
/// still read the old data. A sequentially consistent checker never
/// fails this model; this one must.
#[test]
fn relaxed_publication_stale_read_is_caught_and_replayed() {
    assert_caught_and_replayed(
        || message_passing(Ordering::Relaxed, Ordering::Relaxed),
        "stale data read",
    );
}

#[test]
fn release_acquire_publication_passes() {
    model(|| message_passing(Ordering::Release, Ordering::Acquire));
}

/// The trace tap's ring without generation tags and with a `Relaxed`
/// head publish: the reader can pair a new first word with an old second
/// one and return a torn record.
fn ring_untagged() {
    let a = Arc::new(AtomicU64::new(0));
    let b = Arc::new(AtomicU64::new(0));
    let head = Arc::new(AtomicU64::new(0));
    let writer = {
        let (a, b, head) = (a.clone(), b.clone(), head.clone());
        thread::spawn(move || {
            // ordering: deliberately wrong: no tags, Relaxed publish.
            a.store(7, Ordering::Relaxed);
            b.store(7 ^ 0xABCD, Ordering::Relaxed);
            head.store(1, Ordering::Relaxed);
        })
    };
    let reader = {
        let (a, b, head) = (a.clone(), b.clone(), head.clone());
        thread::spawn(move || {
            // ordering: deliberately wrong: the Relaxed head read
            // synchronises with nothing.
            if head.load(Ordering::Relaxed) == 1 {
                let va = a.load(Ordering::Relaxed);
                let vb = b.load(Ordering::Relaxed);
                assert_eq!(vb, va ^ 0xABCD, "torn record: a={va} b={vb}");
            }
        })
    };
    writer.join();
    reader.join();
}

#[test]
fn untagged_ring_torn_record_is_caught_and_replayed() {
    assert_caught_and_replayed(ring_untagged, "torn record");
}
