//! # fractal-core
//!
//! The core of the Fractal system: the fractoid API (§3.1) and the
//! DFS / from-scratch execution engine (§4.1).
//!
//! A GPM application is written by deriving [`Fractoid`]s from a
//! [`FractalGraph`] and chaining the three computation primitives —
//! extension ([`Fractoid::expand`]), filtering ([`Fractoid::filter`],
//! [`Fractoid::filter_agg`], [`Fractoid::filter_agg_by_pattern`]) and
//! aggregation ([`Fractoid::aggregate`]) —
//! then triggering execution with an output operator
//! ([`Fractoid::subgraphs`], [`Fractoid::count`],
//! [`Fractoid::aggregation`]).
//!
//! Execution follows the paper exactly:
//!
//! * **Algorithm 2** splits the workflow into *fractal steps* at
//!   synchronization points (aggregation filters whose source aggregation
//!   is not yet computed); each step re-runs its ancestors' primitives
//!   *from scratch*, so no intermediate subgraphs are ever stored.
//! * **Algorithm 1** processes one step per core as a DFS over reusable
//!   subgraph enumerators, with every enumeration level registered as a
//!   stealable queue in the runtime (§4.2).
//!
//! One documented generalization: the paper's pseudocode treats aggregation
//! as the final primitive of a step; we let a *live* aggregation accumulate
//! and then continue to any following primitives, which subsumes the
//! paper's behaviour (a trailing aggregation still terminates the
//! recursion) and keeps replayed steps uniform.

#![forbid(unsafe_code)]

pub mod aggregation;
pub mod context;
pub mod engine;
pub mod fractoid;
pub mod plan_run;
pub mod view;

pub use aggregation::{AggResult, AggShard, Aggregator, Leaves};
pub use context::{FractalContext, FractalGraph};
pub use engine::{ExecutionReport, Participation, StepOutcome};
pub use fractoid::Fractoid;
pub use plan_run::{execute_plan_step_distributed, run_plan, run_plan_counts};
pub use view::{SubgraphData, SubgraphView};

/// The common public API surface.
pub mod prelude {
    pub use crate::aggregation::AggResult;
    pub use crate::context::{FractalContext, FractalGraph};
    pub use crate::engine::ExecutionReport;
    pub use crate::fractoid::Fractoid;
    pub use crate::view::{SubgraphData, SubgraphView};
    pub use fractal_runtime::{ClusterConfig, WsMode};
}
