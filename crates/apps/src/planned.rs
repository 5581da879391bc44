//! Plan-selected execution: enumerate vs decomposed counting.
//!
//! The classic applications ([`crate::motifs`], [`crate::query`]) run the
//! pattern-blind enumeration engine. This module adds the alternative
//! execution path compiled by the pattern-decomposition planner
//! (`fractal-pattern`'s `planner`/`exec`, DESIGN.md §14) and the policy
//! that picks between them:
//!
//! - [`PlanMode::Enumerate`] — always run the enumerator,
//! - [`PlanMode::Decomposed`] — run the compiled counting plan (falls back
//!   to enumeration, with a reason, when the task is out of the planner's
//!   scope: labeled matching or motifs beyond size 5),
//! - [`PlanMode::Auto`] — compare the plan's cost estimate against the
//!   enumeration estimate ([`fractal_enum::cost`]) and take the cheaper.
//!
//! Every entry point returns a [`PlanChoice`] naming the path actually
//! taken and why, so `fractal submit` can surface the decision.

use fractal_core::plan_run::run_plan;
use fractal_core::{ExecutionReport, FractalGraph};
use fractal_enum::cost::expansion_cost_estimate;
use fractal_graph::Graph;
use fractal_pattern::planner::is_unlabeled;
use fractal_pattern::{CanonicalCode, CountingPlan, GraphStats, Pattern};
use std::collections::HashMap;

/// Requested execution strategy (the CLI's `--plan` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Pattern-blind subgraph enumeration (the classic engine).
    Enumerate,
    /// Decomposition-compiled counting plans.
    Decomposed,
    /// Pick by cost estimate.
    Auto,
}

impl PlanMode {
    /// Parses the `--plan` flag value.
    pub fn parse(s: &str) -> Option<PlanMode> {
        match s {
            "enumerate" => Some(PlanMode::Enumerate),
            "decomposed" => Some(PlanMode::Decomposed),
            "auto" => Some(PlanMode::Auto),
            _ => None,
        }
    }

    /// The flag spelling that parses back to this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanMode::Enumerate => "enumerate",
            PlanMode::Decomposed => "decomposed",
            PlanMode::Auto => "auto",
        }
    }
}

/// The execution path actually taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The enumeration engine ran.
    Enumerate,
    /// The compiled counting plan ran.
    Decomposed,
}

impl ExecPath {
    /// Lower-case name for reports and summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecPath::Enumerate => "enumerate",
            ExecPath::Decomposed => "decomposed",
        }
    }
}

/// The decision record: which path ran and why.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// What the caller asked for.
    pub requested: PlanMode,
    /// What actually ran.
    pub path: ExecPath,
    /// Human-readable justification (surfaced by `fractal submit`).
    pub reason: String,
}

impl PlanChoice {
    fn new(requested: PlanMode, path: ExecPath, reason: impl Into<String>) -> Self {
        PlanChoice {
            requested,
            path,
            reason: reason.into(),
        }
    }

    /// One-line summary, e.g. `decomposed (plan cost 1.2e3 < enumeration
    /// estimate 4.5e4)`.
    pub fn summary(&self) -> String {
        format!("{} ({})", self.path.as_str(), self.reason)
    }
}

/// Why a motif task cannot be compiled to a counting plan, if it cannot.
pub fn motif_plan_blocker(k: usize, use_labels: bool) -> Option<&'static str> {
    if use_labels {
        Some("labeled motif classes need the enumerator")
    } else if k == 0 || k > 5 {
        Some("decomposed motif counting supports sizes 1..=5")
    } else {
        None
    }
}

/// Why a query cannot be compiled to a counting plan, if it cannot.
pub fn query_plan_blocker(query: &Pattern) -> Option<&'static str> {
    if query.num_vertices() == 0 {
        Some("query pattern is empty")
    } else if !query.is_connected() {
        Some("query pattern is disconnected")
    } else if !is_unlabeled(query) {
        Some("labeled query matching needs the enumerator")
    } else {
        None
    }
}

/// Resolves the mode to a concrete path for a compilable task, comparing
/// cost estimates in `Auto` mode.
fn resolve(requested: PlanMode, plan: &CountingPlan, enum_cost: f64) -> PlanChoice {
    match requested {
        PlanMode::Enumerate => {
            PlanChoice::new(requested, ExecPath::Enumerate, "requested explicitly")
        }
        PlanMode::Decomposed => {
            PlanChoice::new(requested, ExecPath::Decomposed, "requested explicitly")
        }
        PlanMode::Auto => {
            let plan_cost = plan.total_cost();
            if plan_cost <= enum_cost {
                PlanChoice::new(
                    requested,
                    ExecPath::Decomposed,
                    format!("plan cost {plan_cost:.3e} <= enumeration estimate {enum_cost:.3e}"),
                )
            } else {
                PlanChoice::new(
                    requested,
                    ExecPath::Enumerate,
                    format!("enumeration estimate {enum_cost:.3e} < plan cost {plan_cost:.3e}"),
                )
            }
        }
    }
}

/// Path resolution + the compiled plan (present when the task is within
/// the planner's scope, whichever path was chosen).
fn choose_motifs(
    graph: &Graph,
    k: usize,
    use_labels: bool,
    mode: PlanMode,
) -> (PlanChoice, Option<CountingPlan>) {
    if let Some(why) = motif_plan_blocker(k, use_labels) {
        return (PlanChoice::new(mode, ExecPath::Enumerate, why), None);
    }
    let stats = GraphStats::of(graph);
    let plan = CountingPlan::plan_motifs(k, stats);
    let enum_cost = expansion_cost_estimate(stats.vertices, stats.avg_degree(), k);
    (resolve(mode, &plan, enum_cost), Some(plan))
}

fn choose_query(
    graph: &Graph,
    query: &Pattern,
    mode: PlanMode,
) -> (PlanChoice, Option<CountingPlan>) {
    if let Some(why) = query_plan_blocker(query) {
        return (PlanChoice::new(mode, ExecPath::Enumerate, why), None);
    }
    let stats = GraphStats::of(graph);
    let plan = CountingPlan::plan_pattern(query, stats);
    let enum_cost =
        expansion_cost_estimate(stats.vertices, stats.avg_degree(), query.num_vertices());
    (resolve(mode, &plan, enum_cost), Some(plan))
}

/// Resolves the path a motif-counting task would take *without running
/// it*. This is the driver-side `--plan` resolution of `fractal submit`:
/// every worker must be shipped a concrete strategy, so `auto` is decided
/// once here from the graph, and the returned choice explains the
/// decision in the submit summary.
pub fn choose_motifs_path(graph: &Graph, k: usize, use_labels: bool, mode: PlanMode) -> PlanChoice {
    choose_motifs(graph, k, use_labels, mode).0
}

/// Resolves the path a query-counting task would take without running it
/// (the `fractal plan` verb's dry-run view).
pub fn choose_query_path(graph: &Graph, query: &Pattern, mode: PlanMode) -> PlanChoice {
    choose_query(graph, query, mode).0
}

/// Graph-free `--plan` resolution for a motif task (the `fractal client`
/// path, where only a snapshot *spec* is in hand): concrete modes resolve
/// against the planner-scope blockers alone; `Auto` needs the graph's cost
/// estimates and returns `None`.
pub fn choose_motifs_path_blind(k: usize, use_labels: bool, mode: PlanMode) -> Option<PlanChoice> {
    if mode == PlanMode::Auto {
        return None;
    }
    let choice = match (motif_plan_blocker(k, use_labels), mode) {
        (Some(why), _) => PlanChoice::new(mode, ExecPath::Enumerate, why),
        (None, PlanMode::Decomposed) => {
            PlanChoice::new(mode, ExecPath::Decomposed, "requested explicitly")
        }
        (None, _) => PlanChoice::new(mode, ExecPath::Enumerate, "requested explicitly"),
    };
    Some(choice)
}

/// Motif counting under the requested plan mode. Decomposed and enumerated
/// paths produce bit-identical maps (zero-count shapes omitted by both).
pub fn motifs_planned(
    fg: &FractalGraph,
    k: usize,
    use_labels: bool,
    mode: PlanMode,
) -> (HashMap<CanonicalCode, u64>, ExecutionReport, PlanChoice) {
    let (choice, plan) = choose_motifs(fg.graph(), k, use_labels, mode);
    match choice.path {
        ExecPath::Enumerate => {
            let (map, report) = crate::motifs::motifs_with_report(fg, k, use_labels);
            (map, report, choice)
        }
        ExecPath::Decomposed => {
            let plan = plan.expect("decomposed path implies a compiled plan");
            let (counts, report) = run_plan(fg, &plan);
            (counts.into_iter().collect(), report, choice)
        }
    }
}

/// Query-match counting under the requested plan mode. Both paths count
/// non-induced (subgraph) matches.
pub fn count_matches_planned(
    fg: &FractalGraph,
    query: &Pattern,
    mode: PlanMode,
) -> (u64, ExecutionReport, PlanChoice) {
    let (choice, plan) = choose_query(fg.graph(), query, mode);
    match choice.path {
        ExecPath::Enumerate => {
            let (count, report) = crate::query::count_matches_with_report(fg, query);
            (count, report, choice)
        }
        ExecPath::Decomposed => {
            let plan = plan.expect("decomposed path implies a compiled plan");
            let (counts, report) = run_plan(fg, &plan);
            debug_assert_eq!(counts.len(), 1);
            (counts.first().map_or(0, |&(_, n)| n), report, choice)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_core::FractalContext;
    use fractal_graph::gen;
    use fractal_runtime::ClusterConfig;

    fn fg_of(g: fractal_graph::Graph) -> FractalGraph {
        FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(g)
    }

    #[test]
    fn plan_mode_parse_round_trips() {
        for mode in [PlanMode::Enumerate, PlanMode::Decomposed, PlanMode::Auto] {
            assert_eq!(PlanMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(PlanMode::parse("eager"), None);
    }

    #[test]
    fn decomposed_motifs_match_enumerated() {
        let fg = fg_of(gen::mico_like(60, 4, 9));
        for k in 3..=4 {
            let (dec, report, choice) = motifs_planned(&fg, k, false, PlanMode::Decomposed);
            assert_eq!(choice.path, ExecPath::Decomposed);
            assert!(report.steps[0].planner.plans_compiled > 0);
            let enm = crate::motifs::motifs(&fg, k);
            assert_eq!(dec, enm, "k={k}");
        }
    }

    #[test]
    fn labeled_motifs_fall_back_to_enumeration() {
        let fg = fg_of(gen::mico_like(40, 4, 9));
        let (map, report, choice) = motifs_planned(&fg, 3, true, PlanMode::Decomposed);
        assert_eq!(choice.path, ExecPath::Enumerate);
        assert!(choice.reason.contains("labeled"));
        assert_eq!(report.steps[0].planner.plans_compiled, 0);
        assert_eq!(map, crate::motifs::motifs_labeled(&fg, 3));
    }

    #[test]
    fn decomposed_query_counts_match_enumerated() {
        let fg = fg_of(gen::erdos_renyi(25, 90, 1, 13));
        for (name, q) in crate::query::evaluation_queries() {
            let (dec, _, choice) = count_matches_planned(&fg, &q, PlanMode::Decomposed);
            assert_eq!(choice.path, ExecPath::Decomposed, "{name}");
            assert_eq!(dec, crate::query::count_matches(&fg, &q), "{name}");
        }
    }

    #[test]
    fn auto_mode_reports_cost_comparison() {
        let fg = fg_of(gen::mico_like(50, 4, 9));
        let (_, _, choice) = motifs_planned(&fg, 4, false, PlanMode::Auto);
        assert_eq!(choice.requested, PlanMode::Auto);
        assert!(
            choice.reason.contains("cost") || choice.reason.contains("estimate"),
            "auto reason should explain the comparison: {}",
            choice.reason
        );
        assert!(choice.summary().starts_with(choice.path.as_str()));
    }

    #[test]
    fn labeled_query_falls_back_with_reason() {
        let fg = fg_of(gen::mico_like(30, 4, 9));
        let q = Pattern::new(vec![1, 2, 3], vec![(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
        let (count, _, choice) = count_matches_planned(&fg, &q, PlanMode::Auto);
        assert_eq!(choice.path, ExecPath::Enumerate);
        assert!(choice.reason.contains("labeled"));
        assert_eq!(count, crate::query::count_matches(&fg, &q));
    }
}
