//! # fractal-baselines
//!
//! Reimplementations of the systems the paper evaluates Fractal against
//! (§5, Appendix C). These are *algorithmic analogs* (see DESIGN.md,
//! Substitutions): each implements the paradigm that drives the original
//! system's performance profile, so the comparisons reproduce the paper's
//! *shapes* — who wins where, which baselines exhaust memory, how costs
//! grow with subgraph size — rather than absolute numbers.
//!
//! - [`bfs_engine`] — an Arabesque-like [53] general-purpose GPM engine:
//!   BFS level-synchronous enumeration with **stored** embeddings between
//!   levels (optionally compressed into per-pattern prefix tries, standing
//!   in for ODAGs), exact intermediate-state accounting, and memory/time
//!   budgets so out-of-memory and timeout outcomes are first-class.
//! - [`mr`] — MapReduce-style kernels: MRSUB-like motif counting [47] and
//!   QKCount-like clique counting [19], with per-round shuffle
//!   materialization.
//! - [`seed`] — a SEED-like join-based subgraph lister [33]: decompose the
//!   query into clique/edge units, hash-join matches, symmetry-break at
//!   the end.
//! - [`scalemine`] — a ScaleMine-like two-phase FSM [1]: sampling-based
//!   support estimation, then task-parallel exact mining with early
//!   termination (approximate reported counts, exact frequent set).
//! - [`single_thread`] — efficient single-thread baselines for the COST
//!   analysis (Fig. 18/20b): Gtries-like motif/clique counting [46],
//!   GraMi-like FSM [17], single-thread KClist [12], a Neo4j-like
//!   node-iterator triangle counter and a GraphFrames-like join triangle
//!   counter [13].
//! - [`pattern_growth`] — shared pattern-growth candidate generation and
//!   exact MNI support used by the FSM baselines.

pub mod bfs_engine;
pub mod budget;
pub mod mr;
pub mod pattern_growth;
pub mod scalemine;
pub mod seed;
pub mod single_thread;
pub mod trie;

pub use budget::{Budget, Outcome, RunStats};
