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
