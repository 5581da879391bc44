//! Parallel execution of compiled counting plans (the decomposed path).
//!
//! The enumeration engine ([`crate::engine`]) runs pattern-blind DFS over
//! subgraph enumerators; this module runs the *other* execution strategy —
//! a [`CountingPlan`] compiled by the pattern-decomposition planner — on
//! the same work-stealing runtime. Root words are plain vertices: every
//! unit evaluates the whole plan DAG rooted at one vertex and accumulates
//! per-node embedding counts, which the driver combines (inclusion–
//! exclusion, Möbius inversion) only after all roots are in.
//!
//! Replay safety mirrors the enumeration engine's staged-commit protocol:
//! per-unit values land in a scratch vector and fold into the core's
//! durable accumulator only when `process_unit` returns normally, so
//! fault-injected re-executions never double-count a root.

use crate::context::FractalGraph;
use crate::engine::ExecutionReport;
use fractal_graph::Graph;
use fractal_pattern::canon::CanonicalCode;
use fractal_pattern::{exec, CountingPlan, PlanExecutor};
use fractal_runtime::executor::{run_job_with, CoreCtx, CoreTask, ExternalHooks, JobSpec};
use fractal_runtime::level::GlobalCoreId;
use fractal_runtime::stats::{JobReport, PlannerStats};
use fractal_runtime::sync::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// The runtime job of one compiled plan: roots default to the graph's
/// vertices (a driver partition can override them), `totals` collects the
/// per-node sums merged by core `finish`.
struct PlanJobSpec<'a> {
    graph: &'a Graph,
    plan: &'a CountingPlan,
    /// Driver-assigned root partition for distributed passes.
    roots_override: Option<Vec<u64>>,
    totals: Mutex<Vec<i128>>,
}

impl JobSpec for PlanJobSpec<'_> {
    fn roots(&self) -> Vec<u64> {
        match &self.roots_override {
            Some(roots) => roots.clone(),
            None => (0..self.graph.num_vertices() as u64).collect(),
        }
    }

    fn make_core_task<'s>(&'s self, _id: GlobalCoreId) -> Box<dyn CoreTask + 's> {
        let n = self.plan.nodes.len();
        Box::new(PlanCoreTask {
            spec: self,
            exec: PlanExecutor::new(self.graph, self.plan),
            durable: vec![0; n],
            staged: vec![0; n],
        })
    }
}

/// Per-core plan evaluation with staged commits (see module docs).
struct PlanCoreTask<'a> {
    spec: &'a PlanJobSpec<'a>,
    exec: PlanExecutor<'a>,
    /// Per-node sums committed by completed units.
    durable: Vec<i128>,
    /// Per-unit staging buffer, folded into `durable` on unit commit.
    staged: Vec<i128>,
}

impl PlanCoreTask<'_> {
    /// The per-node accumulators plus what the executor keeps resident
    /// (its mark words and common-neighbour counts: 4 bytes each a graph
    /// vertex a core).
    fn state_bytes(&self) -> u64 {
        let sums = (self.durable.len() + self.staged.len()) * std::mem::size_of::<i128>();
        (sums + self.exec.resident_bytes()) as u64
    }
}

impl CoreTask for PlanCoreTask<'_> {
    fn process_unit(&mut self, ctx: &mut CoreCtx<'_>, prefix: &[u64], word: u64) {
        debug_assert!(prefix.is_empty(), "plan jobs are single-level");
        self.staged.iter_mut().for_each(|v| *v = 0);
        self.exec.eval_root(word as u32, &mut self.staged);
        // Commit: the unit completed, so its staged per-node values become
        // durable. A unit unwound mid-flight never reaches this point.
        exec::add_totals(&mut self.durable, &self.staged);
        ctx.add_ec(self.exec.take_ec());
        let kc = self.exec.take_counters();
        if !kc.is_empty() {
            ctx.add_kernels(
                kc.merge_calls,
                kc.gallop_calls,
                kc.bitset_calls,
                kc.elements_scanned,
                kc.arena_high_water_bytes,
            );
        }
        ctx.track_state_bytes(self.state_bytes());
    }

    fn abort_unit(&mut self, _ctx: &mut CoreCtx<'_>) {
        // Discard everything the failed attempt staged; the extension-cost
        // and kernel counters of the aborted attempt would double-count.
        self.staged.iter_mut().for_each(|v| *v = 0);
        let _ = self.exec.take_ec();
        let _ = self.exec.take_counters();
    }

    fn finish(&mut self, ctx: &mut CoreCtx<'_>) {
        ctx.track_state_bytes(self.state_bytes());
        exec::add_totals(&mut self.spec.totals.lock(), &self.durable);
    }
}

/// Runs a compiled plan over all roots of the graph on the work-stealing
/// runtime, returning the raw per-node totals (rooted embedding counts
/// summed over every root vertex) and the execution report. The report's
/// single step carries the plan's compile-time counters in
/// [`JobReport::planner`](fractal_runtime::stats::JobReport).
pub fn run_plan_counts(fg: &FractalGraph, plan: &CountingPlan) -> (Vec<i128>, ExecutionReport) {
    let t0 = Instant::now();
    let (totals, report) = run_plan_pass(fg, plan, None, None);
    (
        totals,
        ExecutionReport {
            steps: vec![report],
            elapsed: t0.elapsed(),
            participation: None,
        },
    )
}

/// One worker pass of a distributed decomposed run: evaluate only the
/// driver-assigned `roots` (plus any words pulled via `hooks`), returning
/// this worker's raw per-node partial totals and the runtime report. The
/// caller ships the totals to the driver, which sums partials element-wise
/// over all workers — per-root values are independent, so partial sums
/// merge exactly — and finalizes via its own identically-compiled plan.
pub fn execute_plan_step_distributed(
    fg: &FractalGraph,
    plan: &CountingPlan,
    roots: Vec<u64>,
    hooks: Option<Arc<dyn ExternalHooks>>,
) -> (Vec<i128>, JobReport) {
    run_plan_pass(fg, plan, Some(roots), hooks)
}

fn run_plan_pass(
    fg: &FractalGraph,
    plan: &CountingPlan,
    roots_override: Option<Vec<u64>>,
    hooks: Option<Arc<dyn ExternalHooks>>,
) -> (Vec<i128>, JobReport) {
    let spec = PlanJobSpec {
        graph: fg.graph(),
        plan,
        roots_override,
        totals: Mutex::new(vec![0; plan.nodes.len()]),
    };
    let mut report = run_job_with(&spec, fg.config(), hooks);
    let c = plan.counters();
    report.planner = PlannerStats {
        plans_compiled: c.plans_compiled,
        subpatterns_counted: c.subpatterns_counted,
        ie_terms: c.ie_terms,
    };
    let totals = std::mem::take(&mut *spec.totals.lock());
    (totals, report)
}

/// Runs a compiled plan end to end: evaluate all roots in parallel, then
/// combine the per-node totals into final counts keyed by canonical code
/// (induced counts for motif plans, subgraph counts for pattern plans).
pub fn run_plan(
    fg: &FractalGraph,
    plan: &CountingPlan,
) -> (Vec<(CanonicalCode, u64)>, ExecutionReport) {
    let (totals, report) = run_plan_counts(fg, plan);
    (plan.finalize(&totals), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FractalContext;
    use fractal_graph::builder::unlabeled_from_edges;
    use fractal_pattern::{exec, GraphStats, Pattern};
    use fractal_runtime::ClusterConfig;

    fn fg_of(n: usize, edges: &[(u32, u32)], workers: usize, cores: usize) -> FractalGraph {
        FractalContext::new(ClusterConfig::local(workers, cores))
            .fractal_graph(unlabeled_from_edges(n, edges))
    }

    /// Deterministic pseudo-random graph (same scheme as the pattern-crate
    /// oracle tests).
    fn lcg_edges(n: u32, seed: u64, density: u64) -> Vec<(u32, u32)> {
        let mut state = seed;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 33) % 100 < density {
                    edges.push((u, v));
                }
            }
        }
        edges
    }

    #[test]
    fn parallel_triangle_count_matches_serial() {
        let fg = fg_of(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
            ],
            2,
            2,
        );
        let plan = CountingPlan::plan_pattern(&Pattern::clique(3), GraphStats::of(fg.graph()));
        let (counts, report) = run_plan(&fg, &plan);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].1, 10); // C(5,3) triangles in K5
        assert!(report.total_ec() > 0);
        let step = &report.steps[0];
        assert_eq!(step.planner.plans_compiled, plan.counters().plans_compiled);
        assert_eq!(
            step.planner.subpatterns_counted,
            plan.counters().subpatterns_counted
        );
        assert_eq!(step.planner.ie_terms, plan.counters().ie_terms);
    }

    #[test]
    fn parallel_motifs_match_single_threaded_executor() {
        for k in 3..=5 {
            let edges = lcg_edges(10, 77, 45);
            let fg = fg_of(10, &edges, 2, 3);
            let plan = CountingPlan::plan_motifs(k, GraphStats::of(fg.graph()));
            let (mut counts, _) = run_plan(&fg, &plan);
            counts.sort();
            let mut serial = exec::motifs_decomposed(fg.graph(), k);
            serial.sort();
            assert_eq!(counts, serial, "k={k}");
        }
    }

    #[test]
    fn raw_totals_are_per_node_sums() {
        let edges = lcg_edges(8, 5, 50);
        let fg = fg_of(8, &edges, 1, 2);
        let plan = CountingPlan::plan_pattern(&Pattern::path(4), GraphStats::of(fg.graph()));
        let (totals, _) = run_plan_counts(&fg, &plan);
        let (serial, _, _) = exec::count_all_roots(fg.graph(), &plan);
        assert_eq!(totals, serial);
    }

    #[test]
    fn tracked_state_bytes_grow_with_the_graph() {
        // The executor holds one mark word per vertex, so a plan job's
        // memory-per-worker (Table 2) must depend on |V|.
        let peak = |n: u32| {
            let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
            let fg = fg_of(n as usize, &edges, 1, 1);
            let plan = CountingPlan::plan_motifs(3, GraphStats::of(fg.graph()));
            run_plan_counts(&fg, &plan).1.peak_worker_state_bytes()
        };
        let (small, large) = (peak(64), peak(4096));
        assert!(
            large >= small + 4 * (4096 - 64),
            "small={small} large={large}"
        );
    }
}
