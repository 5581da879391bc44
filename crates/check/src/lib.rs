//! # fractal-check
//!
//! An in-tree, loom-style, bounded-exhaustive concurrency model checker,
//! plus the workspace's synchronization [`facade`].
//!
//! Fractal's correctness rests on lock-free protocols — the shared
//! extension-queue cursor, the `pending`/`done` obligation counters of
//! exact termination, the trace tap ring, replay-safe aggregation — and
//! those protocols cannot be trusted to ordinary unit tests: the buggy
//! interleavings fire once in a million runs on real hardware, if ever.
//! This crate makes them deterministic: instrumented [`sync`] primitives
//! yield to a DFS scheduler that *enumerates* thread interleavings (and,
//! for `Relaxed`/`Acquire` loads, the set of values the C++11 memory
//! model allows them to return), so a lost update or a stale read is
//! found exhaustively and reported with a replayable schedule string.
//! The container this workspace builds in has no crates.io access, hence
//! an in-tree checker rather than a dependency on loom (see
//! `crates/compat/README.md` for the same story on other dependencies).
//!
//! ## Writing a model test
//!
//! ```
//! use fractal_check::sync::{AtomicUsize, Mutex, Ordering};
//! use fractal_check::{model, thread};
//! use std::sync::Arc;
//!
//! model(|| {
//!     let cursor = Arc::new(AtomicUsize::new(0));
//!     let taken = Arc::new(Mutex::new(Vec::new()));
//!     let workers: Vec<_> = (0..2)
//!         .map(|_| {
//!             let (cursor, taken) = (cursor.clone(), taken.clone());
//!             thread::spawn(move || {
//!                 // ordering: claim index is an RMW; RMWs never lose
//!                 // updates, and the items are immutable.
//!                 let idx = cursor.fetch_add(1, Ordering::Relaxed);
//!                 taken.lock().push(idx);
//!             })
//!         })
//!         .collect();
//!     for w in workers {
//!         w.join();
//!     }
//!     let taken = taken.lock();
//!     assert_eq!(taken.len(), 2);
//!     assert_ne!(taken[0], taken[1], "an index was claimed twice");
//! });
//! ```
//!
//! The closure runs once per explored interleaving, so it must be
//! deterministic (no time, no randomness) and must build its state
//! afresh each run. Threads come from [`thread::spawn`] — at most
//! [`sched::MAX_THREADS`] including the closure's own thread.
//!
//! ## Replaying a failure
//!
//! A [`Failure`] prints a schedule string such as `"1.0.r0.2"`. Feed it
//! back to reproduce the exact interleaving:
//!
//! ```text
//! let failure = Builder::new().check(model_fn).unwrap_err();
//! let again = Builder::new().replay(&failure.schedule, model_fn).unwrap_err();
//! assert_eq!(format!("{:?}", again.kind), format!("{:?}", failure.kind));
//! ```
//!
//! ## Relationship to the rest of the workspace
//!
//! Product crates never name these types directly; they import from the
//! [`facade`] (via `fractal_runtime::sync`), which compiles to the plain
//! `std::sync` / `parking_lot` primitives in normal builds and to the
//! instrumented ones under `RUSTFLAGS="--cfg fractal_check"`. The model
//! tests against real product structures live in `crates/check/tests/`
//! behind that cfg; the always-on mirror models in [`models`] run in
//! every `cargo test` and back the `fractal check` CLI subcommand.

pub mod facade;
pub mod models;
mod sched;
pub mod sync;
pub mod thread;

pub use sched::{in_model, Builder, Failure, FailureKind, Report, MAX_THREADS};

/// Explores `f` with the default [`Builder`]; panics on the first
/// counterexample, printing its replay schedule.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    if let Err(failure) = Builder::new().check(f) {
        panic!("model check failed: {failure}");
    }
}

/// Re-runs one execution of `f` along `schedule` (see [`Builder::replay`]).
pub fn replay<F>(schedule: &str, f: F) -> Result<Report, Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().replay(schedule, f)
}
