//! Placeholder for the former [`bytes`](https://crates.io/crates/bytes)
//! stand-in. Nothing imports this crate any more: every byte that leaves
//! a process is written and read by `fractal_runtime::wire`. The package
//! itself remains only because `crates/runtime` and `crates/enum` still
//! list it and `fractal_bench/Cargo.lock` pins that edge; it goes away
//! with the next PR that may refresh that lock (ROADMAP item 3).

#![forbid(unsafe_code)]
