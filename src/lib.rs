//! # fractal
//!
//! A from-scratch Rust reproduction of *Fractal: A General-Purpose Graph
//! Pattern Mining System* (SIGMOD 2019).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! - [`graph`] — labeled undirected graphs, loaders, synthetic generators and
//!   graph reduction,
//! - [`pattern`] — pattern canonicalization, isomorphism and symmetry breaking,
//! - [`subgraph`] — subgraph representation, extension strategies and
//!   enumerators,
//! - [`runtime`] — the simulated distributed runtime with hierarchical work
//!   stealing,
//! - [`core`] — the fractoid API and from-scratch step execution,
//! - [`apps`] — ready-made GPM applications (motifs, cliques, FSM, querying,
//!   keyword search),
//! - [`baselines`] — the comparison systems reimplemented for the evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use fractal::prelude::*;
//!
//! // A small labeled graph and a context with 2 simulated workers x 2 cores.
//! let graph = fractal::graph::gen::mico_like(200, 5, 7);
//! let fc = FractalContext::new(ClusterConfig::local(2, 2));
//! let fg = fc.fractal_graph(graph);
//!
//! // Count triangles: three vertex extensions with a clique filter.
//! let count = fractal::apps::cliques::count(&fg, 3);
//! assert!(count > 0);
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use fractal_apps as apps;
pub use fractal_baselines as baselines;
pub use fractal_core as core;
pub use fractal_enum as subgraph;
pub use fractal_graph as graph;
pub use fractal_net as net;
pub use fractal_pattern as pattern;
pub use fractal_runtime as runtime;

/// Convenience re-exports covering the common public API surface.
pub mod prelude {
    pub use fractal_core::prelude::*;
    pub use fractal_enum::Subgraph;
    pub use fractal_graph::{Graph, GraphBuilder, Label, VertexId};
    pub use fractal_pattern::Pattern;
    pub use fractal_runtime::{ClusterConfig, TraceConfig, TraceDump, WsMode};
}
