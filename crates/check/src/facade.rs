//! The workspace-wide synchronization facade.
//!
//! Product crates import their atomics and mutexes from here (usually via
//! the `fractal_runtime::sync` re-export) instead of `std::sync` /
//! `parking_lot` directly — clippy's `disallowed-types` enforces it. In
//! a normal build the facade re-exports the real primitives, so it
//! compiles away entirely (zero overhead, bit-identical behaviour). Under
//! `RUSTFLAGS="--cfg fractal_check"` it re-exports the instrumented types
//! from [`crate::sync`], which behave identically outside a model but
//! become checkable the moment they are used inside a
//! [`crate::Builder::check`] closure.
//!
//! The surface is deliberately exactly what the tree uses: the five
//! atomic types, `Ordering`, the poison-free `Mutex`/`MutexGuard`, and
//! `Condvar`. Extend it here (both cfg arms) before introducing a new
//! primitive anywhere else.

#[cfg(fractal_check)]
pub use crate::sync::{
    AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering,
};

#[cfg(not(fractal_check))]
pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(fractal_check))]
pub use parking_lot::{Mutex, MutexGuard};

#[cfg(not(fractal_check))]
pub use std::sync::Condvar;
