//! # fractal-pattern
//!
//! Patterns, canonical labeling, isomorphism and symmetry breaking.
//!
//! A *pattern* (§2.1) is the template of a subgraph: two subgraphs have the
//! same pattern iff they are isomorphic. The paper canonicalizes patterns
//! with the gSpan DFS-code algorithm [62]; this crate implements an
//! equivalent canonical labeling — color refinement (1-WL) followed by a
//! branch-and-bound search over refinement-consistent orderings — which
//! likewise produces a total, isomorphism-invariant code (and, unlike a bare
//! code, also reports the canonical vertex permutation that FSM's
//! minimum-image support needs).
//!
//! Modules:
//!
//! - [`pattern`] — the [`Pattern`] type and constructors from graph slices,
//! - [`canon`] — canonical codes ([`CanonicalCode`]) and permutations,
//! - [`autom`] — automorphism-group enumeration,
//! - [`symmetry`] — Grochow–Kellis symmetry-breaking conditions [24],
//! - [`plan`] — connected matching orders for pattern-induced extension,
//! - [`decompose`] — rooted pattern decomposition and the Möbius motif
//!   basis (DwarvesGraph-style counting, DESIGN.md §14),
//! - [`planner`] — cost-modelled compilation of counting plans,
//! - [`exec`] — single-root execution of compiled plans: neighbour-slice
//!   scans against per-position vertex marks, the deepest level counted.

#![forbid(unsafe_code)]

pub mod autom;
pub mod canon;
pub mod decompose;
pub mod exec;
pub mod pattern;
pub mod plan;
pub mod planner;
pub mod symmetry;

pub use canon::CanonicalCode;
pub use decompose::{MotifBasis, RootedPattern};
pub use exec::PlanExecutor;
pub use pattern::Pattern;
pub use plan::ExplorationPlan;
pub use planner::{CountingPlan, GraphStats, PlannerCounters};
pub use symmetry::SymmetryConditions;
