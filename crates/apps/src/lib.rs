//! # fractal-apps
//!
//! The GPM applications of the paper's evaluation (§2.2, Appendix A/B),
//! written against the public fractal API:
//!
//! - [`motifs`] — motif extraction & counting (Listing 1),
//! - [`cliques`] — clique listing/counting (Listing 2) and the optimized
//!   KClist variant (Listings 6/7), including triangle counting,
//! - [`fsm`] — frequent subgraph mining with minimum-image support
//!   (Listing 3), with and without transparent graph reduction,
//! - [`query`] — subgraph querying (Listing 5) and the q1–q8 evaluation
//!   queries (Fig. 14),
//! - [`planned`] — the `--plan` policy: enumerate vs decomposition-compiled
//!   counting plans, with cost-based auto selection,
//! - [`keyword`] — keyword-based subgraph search (Listing 4) with the
//!   graph-reduction optimization of §4.3.
//!
//! Every application takes a [`fractal_core::FractalGraph`] so the caller
//! controls the simulated cluster shape and work-stealing mode.

#![forbid(unsafe_code)]

pub mod cliques;
pub mod fsm;
pub mod keyword;
pub mod motifs;
pub mod planned;
pub mod query;
