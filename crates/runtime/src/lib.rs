//! # fractal-runtime
//!
//! The simulated distributed runtime: master, workers, cores and the
//! hierarchical work-stealing load balancer of §4.2.
//!
//! The paper runs on a 10-machine Spark cluster with Akka actors for
//! worker-to-worker traffic. Here a *worker* is a group of OS threads
//! inside one process (see DESIGN.md, Substitutions): threads of the same
//! worker share memory directly (internal work stealing, `WS_int`), while
//! threads of different workers may only exchange work through
//! length-prefixed byte messages over channels, paying real serialization
//! plus an optional simulated network latency (external work stealing,
//! `WS_ext`). This preserves the cost asymmetry the paper's load balancer
//! is designed around.
//!
//! - [`level`] — per-core registries of stealable [`level::LevelQueue`]s,
//! - [`executor`] — job execution, core main loops, exact termination,
//! - [`steal`] — steal protocol: local scans, remote request/reply servers,
//! - [`stats`] — per-core busy-time accounting and the [`JobReport`],
//! - [`trace`] — the flight recorder: per-core event rings + histograms,
//! - [`wire`] / [`json`] — the one byte codec and the one JSON layer
//!   everything that leaves the process is written and read with.

#![forbid(unsafe_code)]

pub mod executor;

pub mod sync;

pub mod fault;
pub mod json;
pub mod level;
pub mod stats;
pub mod steal;
pub mod trace;
pub mod wire;

pub use executor::{
    run_job, run_job_with, CoreCtx, CoreTask, ExternalHooks, ExternalJobHandle, ExternalPull,
    JobSpec,
};
pub use fault::{FaultConfig, FaultStats, LinkFaultAction, LinkFaultConfig, LinkFaultInjector};
pub use level::{GlobalCoreId, LevelQueue};
pub use stats::{CoreStats, JobReport, PlannerStats};
pub use trace::{EventKind, TraceConfig, TraceDump, TraceEvent};

/// Which levels of the hierarchical work stealing are active (§5.2.2
/// evaluates exactly these four configurations, Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WsMode {
    /// No balancing: each core only processes its initial partition.
    Disabled,
    /// Only intra-worker (shared-memory) stealing.
    InternalOnly,
    /// Only inter-worker (serialized, message-based) stealing.
    ExternalOnly,
    /// The full hierarchical strategy: internal preferred, external as a
    /// fallback.
    Both,
}

impl WsMode {
    /// Whether intra-worker stealing is enabled.
    #[inline]
    pub fn internal(self) -> bool {
        matches!(self, WsMode::InternalOnly | WsMode::Both)
    }

    /// Whether inter-worker stealing is enabled.
    #[inline]
    pub fn external(self) -> bool {
        matches!(self, WsMode::ExternalOnly | WsMode::Both)
    }
}

/// Shape and behaviour of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated workers ("machines").
    pub num_workers: usize,
    /// Execution threads per worker.
    pub cores_per_worker: usize,
    /// Which work-stealing levels are active.
    pub ws_mode: WsMode,
    /// Simulated one-way network latency applied to each external steal,
    /// in microseconds.
    pub net_latency_us: u64,
    /// Flight-recorder settings (off by default; recording costs one
    /// branch per instrumentation point when disabled).
    pub trace: TraceConfig,
    /// Deterministic fault-injection plan (chaos testing). `None` — the
    /// default — runs fault-free: no injector, no watchdog thread, and the
    /// recovery counters in the report stay zero.
    pub fault: Option<fault::FaultConfig>,
}

impl ClusterConfig {
    /// A cluster of `workers × cores` with the full hierarchical work
    /// stealing and a small default network latency.
    pub fn local(workers: usize, cores: usize) -> Self {
        ClusterConfig {
            num_workers: workers.max(1),
            cores_per_worker: cores.max(1),
            ws_mode: WsMode::Both,
            net_latency_us: 50,
            trace: TraceConfig::default(),
            fault: None,
        }
    }

    /// A single-worker single-core configuration (the COST baseline shape).
    pub fn single_thread() -> Self {
        Self::local(1, 1)
    }

    /// Returns the config with a different work-stealing mode.
    pub fn with_ws(mut self, mode: WsMode) -> Self {
        self.ws_mode = mode;
        self
    }

    /// Returns the config with a different simulated latency.
    pub fn with_latency_us(mut self, us: u64) -> Self {
        self.net_latency_us = us;
        self
    }

    /// Returns the config with the given flight-recorder settings.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Returns the config with a fault-injection plan installed (enables
    /// the watchdog and the chaos machinery for this job).
    pub fn with_faults(mut self, plan: fault::FaultConfig) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Total number of cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.num_workers * self.cores_per_worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ws_mode_flags() {
        assert!(!WsMode::Disabled.internal() && !WsMode::Disabled.external());
        assert!(WsMode::InternalOnly.internal() && !WsMode::InternalOnly.external());
        assert!(!WsMode::ExternalOnly.internal() && WsMode::ExternalOnly.external());
        assert!(WsMode::Both.internal() && WsMode::Both.external());
    }

    #[test]
    fn config_builders() {
        let c = ClusterConfig::local(3, 4)
            .with_ws(WsMode::InternalOnly)
            .with_latency_us(10);
        assert_eq!(c.total_cores(), 12);
        assert_eq!(c.ws_mode, WsMode::InternalOnly);
        assert_eq!(c.net_latency_us, 10);
        assert_eq!(ClusterConfig::single_thread().total_cores(), 1);
    }

    #[test]
    fn trace_disabled_by_default() {
        let c = ClusterConfig::local(1, 1);
        assert!(!c.trace.enabled);
        let c = c.with_trace(TraceConfig::enabled());
        assert!(c.trace.enabled);
        assert!(c.trace.ring_capacity > 0);
    }

    #[test]
    fn degenerate_sizes_clamped() {
        let c = ClusterConfig::local(0, 0);
        assert_eq!(c.total_cores(), 1);
    }
}
