//! The [`Fractoid`]: the state object all workflow operators act on
//! (§3.1).
//!
//! A fractoid is an immutable value: the input graph, the extension
//! strategy and the ordered primitive workflow. Operators return *new*
//! fractoids ("one can derive a fractoid from either another fractoid or
//! from the input graph"), so workflows compose and every partial result
//! can be executed and inspected separately — the interactive-analysis
//! property the paper emphasizes.

use crate::aggregation::{AggResult, AggShard, Aggregator, AggregatorSpec, ClassRuleFn};
use crate::context::FractalGraph;
use crate::engine::{self, AggStore, ExecutionReport, OutputMode, StepOutcome};
use crate::view::{SubgraphData, SubgraphView};
use fractal_enum::{Subgraph, SubgraphEnumerator};
use fractal_graph::Graph;
use fractal_pattern::canon::PatternTable;
use fractal_pattern::CanonicalCode;
use fractal_runtime::executor::ExternalHooks;
use fractal_runtime::sync::{AtomicU64, Ordering};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Builds one enumerator per core.
pub type EnumFactory = Arc<dyn Fn(&Graph) -> Box<dyn SubgraphEnumerator> + Send + Sync>;

static NEXT_UID: AtomicU64 = AtomicU64::new(1);

fn fresh_uid() -> u64 {
    // ordering: Relaxed — uniqueness comes from fetch_add atomicity alone; the
    // uid never synchronizes other memory.
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// A local-filter predicate.
pub type FilterFn = dyn Fn(&SubgraphView<'_>) -> bool + Send + Sync;
/// An aggregation-filter predicate (reads a named aggregation result).
pub type AggFilterFn = dyn Fn(&SubgraphView<'_>, &AggResult) -> bool + Send + Sync;

/// One element of a fractoid's workflow — the computation primitives of §3.
#[derive(Clone)]
pub(crate) enum Primitive {
    /// E: one subgraph extension.
    Expand,
    /// F (local): prune by local information.
    Filter(Arc<FilterFn>),
    /// F (aggregation): prune using an upstream named aggregation (W4).
    AggFilter { name: String, f: Arc<AggFilterFn> },
    /// F (aggregation) whose verdict reads only the subgraph's canonical
    /// pattern, under the given label flags, and the named aggregation: the
    /// engine decides it once per pattern class per core.
    PatternFilter {
        name: String,
        use_vlabels: bool,
        use_elabels: bool,
        keep: Arc<ClassRuleFn>,
    },
    /// A: map subgraphs to key/value pairs and reduce (W2). The `uid`
    /// identifies this primitive instance in the shared result store.
    Aggregate {
        uid: u64,
        spec: Arc<dyn AggregatorSpec>,
    },
}

impl Primitive {
    /// A short tag for workflow summaries (`EEEA` and the like).
    pub(crate) fn tag(&self) -> char {
        match self {
            Primitive::Expand => 'E',
            Primitive::Filter(_) => 'F',
            Primitive::AggFilter { .. } | Primitive::PatternFilter { .. } => 'G',
            Primitive::Aggregate { .. } => 'A',
        }
    }
}

/// The state of a Fractal application: input graph + extension strategy +
/// primitive workflow + shared aggregation results.
#[derive(Clone)]
pub struct Fractoid {
    pub(crate) fgraph: FractalGraph,
    pub(crate) factory: EnumFactory,
    pub(crate) primitives: Vec<Primitive>,
    pub(crate) store: Arc<AggStore>,
}

impl Fractoid {
    pub(crate) fn new(fgraph: FractalGraph, factory: EnumFactory) -> Self {
        Fractoid {
            fgraph,
            factory,
            primitives: Vec::new(),
            store: Arc::new(AggStore::new()),
        }
    }

    /// The graph this fractoid executes on.
    pub fn fractal_graph(&self) -> &FractalGraph {
        &self.fgraph
    }

    /// W1 (`expand`): appends `n` extension primitives.
    pub fn expand(mut self, n: usize) -> Fractoid {
        for _ in 0..n {
            self.primitives.push(Primitive::Expand);
        }
        self
    }

    /// W3 (`filter`): appends a local filter.
    pub fn filter(
        mut self,
        f: impl Fn(&SubgraphView<'_>) -> bool + Send + Sync + 'static,
    ) -> Fractoid {
        self.primitives.push(Primitive::Filter(Arc::new(f)));
        self
    }

    /// W4 (`filter` reading a named aggregation): appends an aggregation
    /// filter. Reading an aggregation that is not yet computed marks a
    /// synchronization point — the step boundary of Algorithm 2.
    pub fn filter_agg(
        mut self,
        agg_name: &str,
        f: impl Fn(&SubgraphView<'_>, &AggResult) -> bool + Send + Sync + 'static,
    ) -> Fractoid {
        self.primitives.push(Primitive::AggFilter {
            name: agg_name.to_string(),
            f: Arc::new(f),
        });
        self
    }

    /// W4 for a filter whose verdict depends only on the subgraph's
    /// canonical pattern (under the given label flags) and the aggregation
    /// named `agg_name`: keeps a subgraph when `keep(code, result, table)`
    /// holds, `table` being the calling core's pattern table to name other
    /// patterns through. The same subgraphs as
    /// [`filter_agg`](Self::filter_agg) with a closure that asks `keep` of
    /// [`SubgraphView::canonical_form`]'s code, but each core asks `keep`
    /// once per pattern class and reads the answer from a class-indexed
    /// array after that, and names each subgraph's class by one trie probe
    /// off its parent's rather than from its whole pattern.
    pub fn filter_agg_by_pattern(
        mut self,
        agg_name: &str,
        use_vlabels: bool,
        use_elabels: bool,
        keep: impl Fn(&CanonicalCode, &AggResult, &mut PatternTable) -> bool + Send + Sync + 'static,
    ) -> Fractoid {
        self.primitives.push(Primitive::PatternFilter {
            name: agg_name.to_string(),
            use_vlabels,
            use_elabels,
            keep: Arc::new(keep),
        });
        self
    }

    /// W2 (`aggregate`): appends a named aggregation defined by key,
    /// value and reduction functions.
    pub fn aggregate<K, V>(
        self,
        name: &str,
        key: impl Fn(&SubgraphView<'_>) -> K + Send + Sync + 'static,
        value: impl Fn(&SubgraphView<'_>) -> V + Send + Sync + 'static,
        reduce: impl Fn(&mut V, V) + Send + Sync + 'static,
    ) -> Fractoid
    where
        K: Eq + Hash + Clone + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.aggregate_spec(Arc::new(Aggregator::new(name, key, value, reduce)))
    }

    /// W2 with the optional final `aggFilter` over reduced entries.
    #[allow(clippy::too_many_arguments)]
    pub fn aggregate_filtered<K, V>(
        self,
        name: &str,
        key: impl Fn(&SubgraphView<'_>) -> K + Send + Sync + 'static,
        value: impl Fn(&SubgraphView<'_>) -> V + Send + Sync + 'static,
        reduce: impl Fn(&mut V, V) + Send + Sync + 'static,
        agg_filter: impl Fn(&K, &V) -> bool + Send + Sync + 'static,
    ) -> Fractoid
    where
        K: Eq + Hash + Clone + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.aggregate_spec(Arc::new(
            Aggregator::new(name, key, value, reduce).with_filter(agg_filter),
        ))
    }

    /// W2 from a pre-built aggregator specification.
    pub fn aggregate_spec(mut self, spec: Arc<dyn AggregatorSpec>) -> Fractoid {
        self.primitives.push(Primitive::Aggregate {
            uid: fresh_uid(),
            spec,
        });
        self
    }

    /// W5 (`explore`): chains the current workflow fragment so it runs `n`
    /// times in total (Listings 2/4/7: `expand(1).filter(f).explore(k)`
    /// grows k-vertex subgraphs).
    pub fn explore(mut self, n: usize) -> Fractoid {
        if n == 0 {
            self.primitives.clear();
            return self;
        }
        let fragment = self.primitives.clone();
        for _ in 1..n {
            for p in &fragment {
                // Cloned aggregations are distinct primitive instances and
                // get fresh uids so their results don't collide.
                let p = match p {
                    Primitive::Aggregate { spec, .. } => Primitive::Aggregate {
                        uid: fresh_uid(),
                        spec: spec.clone(),
                    },
                    other => other.clone(),
                };
                self.primitives.push(p);
            }
        }
        self
    }

    /// The workflow as a compact tag string (`"EEEA"` for 3-cliques
    /// counting, as in §3).
    pub fn workflow_tags(&self) -> String {
        self.primitives.iter().map(|p| p.tag()).collect()
    }

    /// Number of primitives in the workflow.
    pub fn num_primitives(&self) -> usize {
        self.primitives.len()
    }

    // ---- Distributed-execution support (driver/worker substrate) ----

    /// The root work words of this fractoid's step: the extensions of the
    /// empty subgraph. Deterministic for a given graph + enumerator, so the
    /// driver and every worker compute the same list independently.
    pub fn step_roots(&self) -> Vec<u64> {
        let graph: &Graph = &self.fgraph.graph;
        let mut enumerator = (self.factory)(graph);
        let sg = Subgraph::new(graph);
        let mut roots = Vec::new();
        enumerator.compute_extensions(graph, &sg, &mut roots);
        roots
    }

    /// Seeds the `position`-th Aggregate primitive (0-based, workflow
    /// order) with an externally computed shard, marking it replayed. In a
    /// distributed run the driver ships globally merged + filtered results
    /// of earlier rounds to workers, which seed them positionally before
    /// executing the next round's step; the shard is stored as-is, without
    /// re-applying any final filter.
    pub fn seed_aggregation(&self, position: usize, shard: Box<dyn AggShard>) {
        let uid = self
            .primitives
            .iter()
            .filter_map(|p| match p {
                Primitive::Aggregate { uid, .. } => Some(*uid),
                _ => None,
            })
            .nth(position)
            .unwrap_or_else(|| panic!("no aggregation at position {position} in workflow"));
        self.store
            .insert(uid, Arc::new(AggResult::from_shard(shard)));
    }

    /// Executes this fractoid as one distributed step over the given root
    /// partition, optionally pulling extra roots from an external steal
    /// source. Returns unfinalized local results (see
    /// [`StepOutcome`]); nothing is published to the shared store.
    pub fn execute_step_distributed(
        &self,
        roots: Vec<u64>,
        count: bool,
        hooks: Option<Arc<dyn ExternalHooks>>,
    ) -> StepOutcome {
        engine::execute_step_distributed(self, roots, count, hooks)
    }

    // ---- Output operators (trigger execution; §3.1 Fig. 5) ----

    /// Executes the workflow and returns the execution report (steps,
    /// per-core statistics, participation masks).
    pub fn execute(&self) -> ExecutionReport {
        engine::execute(self, OutputMode::None).0
    }

    /// Executes with participation tracking enabled: the report's masks
    /// record every vertex/edge that belonged to a result subgraph,
    /// enabling the transparent graph reduction of §4.3.
    pub fn execute_tracking_participation(&self) -> ExecutionReport {
        engine::execute(self, OutputMode::TrackOnly).0
    }

    /// O1 (`subgraphs`): executes and returns all result subgraphs, with
    /// ids translated to the original input graph.
    pub fn subgraphs(&self) -> Vec<SubgraphData> {
        self.subgraphs_with_report().0
    }

    /// O1 plus the execution report.
    pub fn subgraphs_with_report(&self) -> (Vec<SubgraphData>, ExecutionReport) {
        let (report, out) = engine::execute(self, OutputMode::Collect);
        (out.subgraphs, report)
    }

    /// Executes and counts result subgraphs without materializing them.
    pub fn count(&self) -> u64 {
        self.count_with_report().0
    }

    /// Count plus the execution report.
    pub fn count_with_report(&self) -> (u64, ExecutionReport) {
        let (report, out) = engine::execute(self, OutputMode::Count);
        (out.count, report)
    }

    /// O2 (`aggregation`): executes and returns the named aggregation's
    /// reduced mapping (from its **last** occurrence in the workflow).
    pub fn aggregation<K, V>(&self, name: &str) -> HashMap<K, V>
    where
        K: Eq + Hash + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        self.aggregation_result(name).map::<K, V>().clone()
    }

    /// O2 returning the shared result handle (no clone). When the result
    /// was already computed (by this fractoid or an ancestor execution) it
    /// is served from the shared store without re-running the workflow.
    pub fn aggregation_result(&self, name: &str) -> Arc<AggResult> {
        let uid = self
            .primitives
            .iter()
            .rev()
            .find_map(|p| match p {
                Primitive::Aggregate { uid, spec } if spec.name() == name => Some(*uid),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no aggregation named {name:?} in workflow"));
        if let Some(cached) = self.store.get(uid) {
            return cached;
        }
        let (report, _) = engine::execute(self, OutputMode::None);
        drop(report);
        self.store
            .get(uid)
            .expect("aggregation executed but result missing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FractalContext;
    use fractal_runtime::ClusterConfig;

    fn fg() -> FractalGraph {
        let g = fractal_graph::gen::complete(4);
        FractalContext::new(ClusterConfig::local(1, 2)).fractal_graph(g)
    }

    #[test]
    fn workflow_tags_match_paper_shorthand() {
        let f = fg()
            .vfractoid()
            .expand(3)
            .aggregate("c", |_| 0u32, |_| 1u64, |a, v| *a += v);
        assert_eq!(f.workflow_tags(), "EEEA");
    }

    #[test]
    fn explore_repeats_fragment() {
        let f = fg().vfractoid().expand(1).filter(|_| true).explore(3);
        assert_eq!(f.workflow_tags(), "EFEFEF");
        let zero = fg().vfractoid().expand(1).explore(0);
        assert_eq!(zero.num_primitives(), 0);
    }

    #[test]
    fn explore_re_uids_aggregates() {
        let f = fg()
            .vfractoid()
            .expand(1)
            .aggregate("a", |_| 0u32, |_| 1u64, |a, v| *a += v)
            .explore(2);
        let uids: Vec<u64> = f
            .primitives
            .iter()
            .filter_map(|p| match p {
                Primitive::Aggregate { uid, .. } => Some(*uid),
                _ => None,
            })
            .collect();
        assert_eq!(uids.len(), 2);
        assert_ne!(uids[0], uids[1]);
    }

    #[test]
    fn fractoids_are_values() {
        let base = fg().vfractoid().expand(1);
        let a = base.clone().expand(1);
        let b = base.clone().expand(2);
        assert_eq!(base.num_primitives(), 1);
        assert_eq!(a.num_primitives(), 2);
        assert_eq!(b.num_primitives(), 3);
    }
}
