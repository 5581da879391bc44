//! # fractal-net: multi-process cluster substrate
//!
//! Real distributed execution for fractal jobs: a **driver** process
//! partitions root work words across **worker** processes and reduces
//! their final aggregations; workers run the existing multi-core executor
//! and serve *external work stealing* over TCP through the driver
//! (hub-and-spoke — no peer connections), speaking a length-prefixed,
//! versioned binary frame protocol.
//!
//! Layering:
//! - [`frame`] — the wire frame codec (`Hello`/`Assign`/`StealRequest`/
//!   `StealReply`/`Ack`/`Nack`/`AggFlush`/`Heartbeat`/`Done`), checksummed
//!   and adversarially decoded.
//! - [`blob`] — typed payload encodings carried inside frames: job spec
//!   (app + graph, or app + the id of a graph the worker already holds),
//!   aggregation maps, metrics reports.
//! - [`app`] — the one module that knows what each [`AppSpec`] computes:
//!   the worker's round, the driver's per-round reduction and the
//!   committed-result blob that is journalled, resumed from and served.
//! - [`worker`] — the worker process loop: runs jobs with an
//!   [`fractal_runtime::ExternalHooks`] pull source and answers steal
//!   requests from its own run queues.
//! - [`driver`] — the driver: assignment, steal relay, heartbeat
//!   watchdog, death recovery (orphaned words are re-executed on
//!   survivors), aggregation merge and report federation.
//! - [`serve`] — the long-lived multi-tenant job server: admission with
//!   per-tenant quotas, LRU-cached graph snapshots shared across jobs,
//!   and several concurrent jobs multiplexed over the same worker
//!   connections via job-id tagged [`frame::Frame::Mux`] envelopes.
//! - [`client`] — the submit/status/cancel/result client side, with a
//!   reconnect-with-backoff event-stream wait that survives transient
//!   disconnects.
//! - [`journal`] — the serve daemon's write-ahead job journal: durable
//!   admission/commit/terminal records with torn-write-tolerant replay,
//!   powering crash-consistent restarts (`serve --journal <dir>`).
//! - [`linkfault`] — the link-degradation fault envelope: deterministic
//!   delay/duplicate/reorder injection at the `FrameSource`/`FrameSink`
//!   layer plus the receive-side duplicate suppression that keeps
//!   degraded links exactly-once.
//!
//! Failure model: the driver is reliable (its failure fails the job);
//! workers may die at any point. A worker death mid-round returns *all*
//! its owned words to the orphan pool — completed-but-unflushed results
//! died with the process, so exactly-once output is preserved by making
//! flush, not completion, the commit point.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod app;
pub mod blob;
pub mod client;
pub mod driver;
pub mod frame;
pub mod journal;
pub mod linkfault;
pub mod serve;
pub mod worker;

pub use app::Committed;
pub use blob::AppSpec;
pub use client::{Client, JobTerminal, ReconnectPolicy};
pub use driver::{
    render_per_worker, run_cluster, run_cluster_links, ChaosKill, ClusterResult, DriverConfig,
    LocalCluster, ResumeState, WorkerSummary,
};
pub use frame::EventKind;
pub use journal::{Journal, Record, Replay};
pub use linkfault::{DedupSource, FaultySink};
pub use serve::{load_snapshot, ServeConfig, Server};
pub use worker::{serve, serve_with, ServeOutcome};

/// The error a malformed or unexpected peer message turns into.
fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}
