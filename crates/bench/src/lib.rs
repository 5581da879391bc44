//! # fractal-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§5, Appendix C), shared dataset registry, table printing
//! and CSV output. The `repro` binary dispatches to these modules.
//!
//! Shapes, not absolute numbers, are the reproduction target: the
//! original ran on a 10-machine cluster against JVM systems; this
//! workspace simulates the cluster in-process and reimplements the
//! baselines as algorithmic analogs (see DESIGN.md).

#![forbid(unsafe_code)]

pub mod datasets;
pub mod experiments;
pub mod table;

use std::time::{Duration, Instant};

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// Formats a duration as seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats bytes as mebibytes with 2 decimals.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}
