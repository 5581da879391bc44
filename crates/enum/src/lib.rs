//! # fractal-enum
//!
//! Subgraph representation and enumeration.
//!
//! This crate implements the *extension* primitive of the Fractal model
//! (§3, Fig. 1): given a subgraph, produce the candidate words (vertices or
//! edges) that extend it, with redundancy eliminated by canonicality checks
//! (vertex- and edge-induced) or symmetry breaking (pattern-induced).
//!
//! - [`Subgraph`] — an incrementally grown connected subgraph with O(1)
//!   membership tests and per-level rollback (the structure each core
//!   mutates during the DFS of Algorithm 1),
//! - [`canonical`] — the canonicality rules that make every subgraph be
//!   enumerated exactly once,
//! - [`enumerator`] — the [`SubgraphEnumerator`] abstraction of Fig. 7 and
//!   its vertex-, edge- and pattern-induced implementations,
//! - [`kclist`] — the custom KClist clique enumerator of Appendix B,
//! - [`cost`] — the enumeration cost estimate that `--plan auto` weighs
//!   against a compiled decomposition plan's estimate,
//! - [`queue`] — shared extension queues with atomic claim cursors, the
//!   unit of work stealing (§4.2).

pub mod canonical;
pub mod cost;
pub mod enumerator;
pub mod kclist;
pub mod queue;
pub mod sampling;
pub mod subgraph;

pub use cost::expansion_cost_estimate;
pub use enumerator::{
    EdgeInducedEnumerator, PatternEnumerator, SubgraphEnumerator, VertexInducedEnumerator,
    WordKind, MAX_EDGE_WORDS, MAX_VERTEX_WORDS,
};
pub use kclist::KClistEnumerator;
pub use queue::ExtensionQueue;
pub use sampling::SamplingEnumerator;
pub use subgraph::Subgraph;
