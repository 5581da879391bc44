//! # fractal-graph
//!
//! The input-graph substrate of the fractal workspace.
//!
//! This crate implements the graph model of the paper's Definition 1: an
//! undirected graph without self-loops whose vertices and edges carry a
//! primary [`Label`] and, optionally, *sets of keywords* (the map
//! `f_L : V ∪ E → P(L)` used by the keyword-search workload).
//!
//! The main type is [`Graph`], an immutable CSR (compressed sparse row)
//! structure optimized for the access patterns of subgraph enumeration:
//! sorted neighborhood scans, O(log d) edge lookup between two vertices and
//! merge-based neighborhood intersection.
//!
//! Additional modules:
//!
//! - [`builder`] — mutable [`GraphBuilder`] that validates and freezes graphs,
//! - [`io`] — loaders/writers for the Arabesque adjacency-list format and a
//!   plain edge-list format,
//! - [`gen`] — deterministic synthetic generators shaped after the paper's
//!   evaluation datasets (Table 1),
//! - [`kernels`] — the extension hot-path intersection kernels (hybrid
//!   sorted-merge / galloping / bitset) and per-core candidate-set arenas,
//! - [`reduction`] — the graph-reduction optimization of §4.3 (`vfilter` /
//!   `efilter` and participation-driven reduction),
//! - [`keywords`] — interned keyword dictionary and per-element keyword sets.

pub mod bitset;
pub mod builder;
pub mod gen;
pub mod io;
pub mod kernels;
pub mod keywords;
pub mod reduction;

mod graph;
mod ids;

pub use bitset::Bitset;
pub use builder::{graph_from_edges, try_graph_from_edges, unlabeled_from_edges, GraphBuilder};
pub use graph::{EdgeRef, Graph};
pub use ids::{EdgeId, KeywordId, Label, VertexId};
pub use kernels::{ExtensionKernels, KernelCounters};
pub use keywords::KeywordTable;
pub use reduction::{EdgeMask, ReducedGraph, VertexMask};

/// Errors produced while building or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// A self-loop `(v, v)` was supplied; the model forbids them (Def. 1).
    SelfLoop(u32),
    /// An endpoint referenced a vertex id that was never added.
    UnknownVertex(u32),
    /// The same undirected edge was supplied twice.
    DuplicateEdge(u32, u32),
    /// An I/O error while reading or writing a graph file.
    Io(std::io::Error),
    /// A parse error: line number and description.
    Parse(usize, String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v} is not allowed"),
            GraphError::UnknownVertex(v) => write!(f, "edge endpoint {v} is not a known vertex"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate undirected edge ({u}, {v})"),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse(line, msg) => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
