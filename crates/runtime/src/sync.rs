//! The workspace synchronization facade: every atomic, mutex and condvar
//! in product code is imported from here (or from
//! `fractal_check::facade` in crates that do not depend on the runtime)
//! rather than from `std::sync` / `parking_lot` directly — enforced by
//! clippy's `disallowed-types` (root `clippy.toml`) under
//! `--cfg fractal_check`. In normal builds this re-exports the plain
//! primitives (zero overhead); under `RUSTFLAGS="--cfg fractal_check"` it
//! swaps in the instrumented types of `fractal_check::sync`, so the model
//! tests in `crates/check/tests/` explore the real structures'
//! interleavings.

pub use fractal_check::facade::*;

/// Channel endpoints for intra-process queues, routed through the facade
/// so the rest of the tree has a single import point: the runtime is the
/// only crate that depends on `crossbeam` (the compat shim). Channels are
/// not interposed by the model checker — the §11 checker explores the
/// lock-free queue/steal structures directly, and channel rendezvous
/// would explode the interleaving space — so these are straight
/// re-exports in every build flavor.
pub mod channel {
    pub use crossbeam::channel::*;
}
