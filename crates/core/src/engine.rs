//! The execution engine: Algorithm 2 (from-scratch step splitting) driving
//! Algorithm 1 (DFS step processing) on the work-stealing runtime.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::aggregation::{AggResult, AggShard, ClassRule, ClassRuleFn, Leaves};
use crate::fractoid::{Fractoid, Primitive};
use crate::view::{classify_child, with_patterns, PatternClass, SubgraphData, SubgraphView};
use fractal_enum::{Subgraph, SubgraphEnumerator, WordKind};
use fractal_graph::bitset::Bitset;
use fractal_graph::Graph;
use fractal_pattern::canon::Level;
use fractal_runtime::executor::{run_job, run_job_with, CoreCtx, CoreTask, ExternalHooks, JobSpec};
use fractal_runtime::level::GlobalCoreId;
use fractal_runtime::stats::JobReport;
use fractal_runtime::sync::Mutex;
use fractal_runtime::sync::{AtomicU64, Ordering};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared store of computed aggregation results, keyed by the `uid` of the
/// Aggregate primitive that produced them. Shared across fractoids derived
/// from one another, so "the execution engine reuses their results on every
/// subsequent step once they are computed" (§4.1) — including across the
/// re-executions of an iterative application like FSM.
#[derive(Default)]
pub struct AggStore {
    inner: Mutex<HashMap<u64, Arc<AggResult>>>,
}

impl AggStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches a computed result.
    pub fn get(&self, uid: u64) -> Option<Arc<AggResult>> {
        self.inner.lock().get(&uid).cloned()
    }

    /// Stores a computed result.
    pub fn insert(&self, uid: u64, result: Arc<AggResult>) {
        self.inner.lock().insert(uid, result);
    }

    /// Whether a result exists.
    pub fn contains(&self, uid: u64) -> bool {
        self.inner.lock().contains_key(&uid)
    }

    /// Total resident bytes of stored results (memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().values().map(|r| r.resident_bytes()).sum()
    }
}

/// Vertex/edge participation masks: which elements of the executed graph
/// belonged to at least one result subgraph. This feeds the transparent
/// graph reduction of §4.3 (Equation 1).
#[derive(Debug, Clone)]
pub struct Participation {
    /// Vertices that appeared in a result subgraph.
    pub vertices: Bitset,
    /// Edges that appeared in a result subgraph.
    pub edges: Bitset,
}

/// What the execution produces besides aggregations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Only aggregations (O2).
    None,
    /// Count result subgraphs.
    Count,
    /// Collect result subgraphs (O1).
    Collect,
    /// Only participation masks (transparent reduction support).
    TrackOnly,
}

impl OutputMode {
    fn tracks_participation(self) -> bool {
        matches!(self, OutputMode::TrackOnly)
    }
    fn collects(self) -> bool {
        matches!(self, OutputMode::Collect)
    }
    fn counts(self) -> bool {
        matches!(self, OutputMode::Count)
    }
}

/// Collected outputs of an execution.
#[derive(Debug, Default)]
pub struct OutputData {
    /// Result subgraphs (Collect mode), ids in original-graph terms.
    pub subgraphs: Vec<SubgraphData>,
    /// Result count (Count mode).
    pub count: u64,
}

/// Statistics and artifacts of executing a fractoid.
#[derive(Debug)]
pub struct ExecutionReport {
    /// One runtime report per fractal step, in execution order.
    pub steps: Vec<JobReport>,
    /// Total wall-clock time including step orchestration.
    pub elapsed: Duration,
    /// Participation masks (TrackOnly mode).
    pub participation: Option<Participation>,
}

impl ExecutionReport {
    /// Number of fractal steps the workflow was split into.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total extension cost over all steps (§4.3's EC metric).
    pub fn total_ec(&self) -> u64 {
        self.steps.iter().map(|s| s.total_ec()).sum()
    }

    /// Peak per-worker intermediate state over all steps, in bytes
    /// (Table 2's metric).
    pub fn peak_worker_state_bytes(&self) -> u64 {
        self.steps
            .iter()
            .flat_map(|s| s.worker_state_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Total successful `(internal, external)` steals.
    pub fn steals(&self) -> (u64, u64) {
        self.steps.iter().fold((0, 0), |(i, e), s| {
            let (si, se) = s.steals();
            (i + si, e + se)
        })
    }

    /// Writes the flight-recorder event traces of all steps as one JSONL
    /// stream (no-op for steps executed without tracing).
    pub fn write_trace_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for step in &self.steps {
            if let Some(trace) = &step.trace {
                trace.write_jsonl(out)?;
            }
        }
        Ok(())
    }
}

/// The name of the aggregation `p` reads: an aggregation filter's source,
/// or the one a live aggregation's candidate rule reads.
fn reads(p: &Primitive) -> Option<&str> {
    match p {
        Primitive::AggFilter { name, .. } | Primitive::PatternFilter { name, .. } => Some(name),
        Primitive::Aggregate { spec, .. } => spec.candidates().map(|(name, _)| name),
        Primitive::Expand | Primitive::Filter(_) => None,
    }
}

/// Splits the workflow into fractal steps (Algorithm 2): a step boundary
/// sits before every primitive reading an aggregation that is not in the
/// store (an aggregation filter, or an aggregation with a candidate rule).
/// Returns the exclusive end index of each step; each step runs
/// `primitives[0..end]` from scratch.
pub(crate) fn split_steps(fractoid: &Fractoid) -> Vec<usize> {
    let prims = &fractoid.primitives;
    let mut known: Vec<u64> = Vec::new(); // uids computed by earlier steps
    let mut ends = Vec::new();
    for (i, p) in prims.iter().enumerate() {
        if let Some(name) = reads(p) {
            let source = resolve_source(prims, i, name);
            #[expect(
                clippy::panic,
                reason = "plan-split-time validation, once per job: an unknown aggregation \
                          name is a programming error in the workflow and must surface \
                          before any work runs"
            )]
            let source =
                source.unwrap_or_else(|| panic!("workflow reads unknown aggregation {name:?}"));
            if !fractoid.store.contains(source) && !known.contains(&source) {
                ends.push(i);
                // Everything before the boundary is computed once this step
                // runs.
                for p in &prims[..i] {
                    if let Primitive::Aggregate { uid, .. } = p {
                        known.push(*uid);
                    }
                }
            }
        }
    }
    ends.push(prims.len());
    ends
}

/// The uid of the nearest preceding Aggregate named `name`.
fn resolve_source(prims: &[Primitive], idx: usize, name: &str) -> Option<u64> {
    prims[..idx].iter().rev().find_map(|p| match p {
        Primitive::Aggregate { uid, spec } if spec.name() == name => Some(*uid),
        _ => None,
    })
}

/// Refuses, before any core starts, a workflow no step of which could run:
/// one that does not begin by growing a subgraph, or that grows more words
/// than its enumerator can hold (a panic inside a core would hang the job).
fn check_workflow(fractoid: &Fractoid) {
    let prims = &fractoid.primitives;
    assert!(
        matches!(prims.first(), Some(Primitive::Expand)),
        "a fractal workflow must start with expand()"
    );
    let expands = prims
        .iter()
        .filter(|p| matches!(p, Primitive::Expand))
        .count();
    let max = (fractoid.factory)(&fractoid.fgraph.graph).max_words();
    assert!(
        expands <= max,
        "a fractal workflow grows at most {max} words with this enumerator, got {expands} expand()s"
    );
}

/// Executes a fractoid: split into steps, run each step on the runtime,
/// merge and publish aggregations between steps.
pub(crate) fn execute(fractoid: &Fractoid, mode: OutputMode) -> (ExecutionReport, OutputData) {
    let t0 = Instant::now();
    let prims = &fractoid.primitives;
    check_workflow(fractoid);
    let ends = split_steps(fractoid);
    #[expect(
        clippy::unwrap_used,
        reason = "split_steps returns at least one boundary for a workflow that passed the \
                  expand() assert above"
    )]
    let last = *ends.last().unwrap();
    let mut reports = Vec::with_capacity(ends.len());
    let mut output = OutputData::default();
    let mut participation: Option<Participation> = None;

    for &end in &ends {
        if end == 0 {
            continue;
        }
        let is_final = end == last;
        // Output and participation apply only to the final step's results.
        let step_mode = if is_final { mode } else { OutputMode::None };
        let spec = StepSpec::build(fractoid, &prims[..end], step_mode);
        let report = run_job(&spec, &fractoid.fgraph.config);
        // Publish freshly computed aggregations.
        let mut merged = spec.merged.lock();
        for (slot, uid) in spec.live_agg_uids.iter().enumerate() {
            let mut shard = merged[slot].take().unwrap_or_else(|| {
                // No core ran (empty roots): produce an empty shard.
                spec.live_agg_specs[slot].new_shard()
            });
            shard.finalize();
            fractoid.store.insert(*uid, Arc::new(AggResult::new(shard)));
        }
        drop(merged);
        if is_final {
            if step_mode.collects() {
                output.subgraphs = std::mem::take(&mut spec.collected.lock());
            }
            // ordering: Relaxed — counter is read after all workers joined.
            output.count = spec.counter.load(Ordering::Relaxed);
            if step_mode.tracks_participation() {
                participation = spec.participation.lock().take();
            }
        }
        reports.push(report);
    }

    (
        ExecutionReport {
            steps: reports,
            elapsed: t0.elapsed(),
            participation,
        },
        output,
    )
}

/// What one distributed worker pass over a step produces: the local count,
/// the local runtime report and the *unfinalized* merged shard of every
/// live aggregation (in workflow order). Nothing is published to the
/// fractoid's store — the driver owns the global merge + finalize.
pub struct StepOutcome {
    /// Local result-subgraph count (Count mode only).
    pub count: u64,
    /// This worker's runtime report for the pass.
    pub report: JobReport,
    /// Unfinalized merged shards, one per live aggregation in workflow
    /// order.
    pub shards: Vec<Box<dyn AggShard>>,
}

/// Executes one fractal step of a distributed run: enumerate only the
/// given `roots` (the driver's partition for this worker), optionally pull
/// extra root words from an external steal source via `hooks`, and return
/// the unfinalized local results instead of publishing them.
///
/// The workflow must form a *single* step from this fractoid's point of
/// view: every aggregation filter's source must already be in the store
/// (seeded via [`Fractoid::seed_aggregation`] for iterative applications
/// like FSM). The driver enforces this by splitting rounds itself.
pub(crate) fn execute_step_distributed(
    fractoid: &Fractoid,
    roots: Vec<u64>,
    count: bool,
    hooks: Option<Arc<dyn ExternalHooks>>,
) -> StepOutcome {
    let prims = &fractoid.primitives;
    check_workflow(fractoid);
    let ends = split_steps(fractoid);
    assert_eq!(
        ends.len(),
        1,
        "distributed step execution requires a single-step workflow \
         (seed upstream aggregations first); got {} steps",
        ends.len()
    );
    let mode = if count {
        OutputMode::Count
    } else {
        OutputMode::None
    };
    let mut spec = StepSpec::build(fractoid, prims, mode);
    spec.roots_override = Some(roots);
    let report = run_job_with(&spec, &fractoid.fgraph.config, hooks);
    let mut merged = spec.merged.lock();
    let shards: Vec<Box<dyn AggShard>> = spec
        .live_agg_uids
        .iter()
        .enumerate()
        .map(|(slot, _)| {
            merged[slot]
                .take()
                .unwrap_or_else(|| spec.live_agg_specs[slot].new_shard())
        })
        .collect();
    drop(merged);
    StepOutcome {
        // ordering: Relaxed — counter is read after all workers joined.
        count: spec.counter.load(Ordering::Relaxed),
        report,
        shards,
    }
}

/// Per-primitive pre-resolved execution info.
enum Resolved {
    Expand,
    Filter(Arc<crate::fractoid::FilterFn>),
    AggFilter {
        f: Arc<crate::fractoid::AggFilterFn>,
        source: Arc<AggResult>,
    },
    /// A pattern-keyed aggregation filter: the step's class rule `rule`,
    /// asked of the subgraph's class under `labels` (vertex, edge).
    PatternFilter {
        rule: usize,
        labels: (bool, bool),
    },
    /// A live aggregation accumulating into shard `slot`.
    AggregateLive(usize),
    /// An aggregation computed by an earlier step: pure pass-through.
    AggregateReplayed,
}

/// The runtime job of one fractal step.
struct StepSpec<'a> {
    fractoid: &'a Fractoid,
    graph: &'a Graph,
    resolved: Vec<Resolved>,
    /// Position of each Expand primitive in `resolved`.
    ext_indices: Vec<usize>,
    /// Spec of each live aggregation, by slot.
    live_agg_specs: Vec<Arc<dyn crate::aggregation::AggregatorSpec>>,
    /// Uid of each live aggregation, by slot.
    live_agg_uids: Vec<u64>,
    /// Each live aggregation keyed by pattern, by slot; `None` for one that
    /// reads views through key and value functions.
    named: Vec<Option<NamedAgg>>,
    /// The class rules of the step's pattern filters and candidate rules,
    /// each with the result it reads; every core evaluates its own
    /// ([`ClassRule`]).
    rules: Vec<(Arc<ClassRuleFn>, Arc<AggResult>)>,
    /// The label flags under which the DFS keeps the quick id of each
    /// materialised level (those of the step's first pattern filter); `None`
    /// when the step has none and keeps no ids.
    id_labels: Option<(bool, bool)>,
    /// What becomes of the subgraphs of the deepest `Expand`.
    deepest: DeepestLevel,
    /// Merged shards (one per live slot), filled by core `finish`.
    merged: Mutex<Vec<Option<Box<dyn AggShard>>>>,
    mode: OutputMode,
    /// Distributed runs partition root words across worker processes: when
    /// set, this worker enumerates only the given roots instead of the full
    /// root frontier (the driver owns the partitioning).
    roots_override: Option<Vec<u64>>,
    collected: Mutex<Vec<SubgraphData>>,
    counter: AtomicU64,
    participation: Mutex<Option<Participation>>,
}

impl<'a> StepSpec<'a> {
    fn build(fractoid: &'a Fractoid, prims: &'a [Primitive], mode: OutputMode) -> Self {
        let graph: &Graph = &fractoid.fgraph.graph;
        let mut resolved = Vec::with_capacity(prims.len());
        let mut ext_indices = Vec::new();
        let mut live_agg_specs = Vec::new();
        let mut live_agg_uids = Vec::new();
        let mut named = Vec::new();
        let mut rules = Vec::new();
        let mut id_labels = None;
        for (i, p) in prims.iter().enumerate() {
            match p {
                Primitive::Expand => {
                    ext_indices.push(i);
                    resolved.push(Resolved::Expand);
                }
                Primitive::Filter(f) => resolved.push(Resolved::Filter(f.clone())),
                Primitive::AggFilter { name, f } => {
                    resolved.push(Resolved::AggFilter {
                        f: f.clone(),
                        source: read_source(fractoid, prims, i, name),
                    });
                }
                Primitive::PatternFilter {
                    name,
                    use_vlabels,
                    use_elabels,
                    keep,
                } => {
                    let labels = (*use_vlabels, *use_elabels);
                    id_labels.get_or_insert(labels);
                    rules.push((keep.clone(), read_source(fractoid, prims, i, name)));
                    resolved.push(Resolved::PatternFilter {
                        rule: rules.len() - 1,
                        labels,
                    });
                }
                Primitive::Aggregate { uid, spec } => {
                    if fractoid.store.contains(*uid) {
                        resolved.push(Resolved::AggregateReplayed);
                    } else {
                        let rule = spec.candidates().map(|(name, keep)| {
                            rules.push((keep.clone(), read_source(fractoid, prims, i, name)));
                            rules.len() - 1
                        });
                        named.push(spec.pattern_flags().map(|(use_vlabels, use_elabels)| {
                            NamedAgg {
                                slot: live_agg_specs.len(),
                                use_vlabels,
                                use_elabels,
                                rule,
                            }
                        }));
                        resolved.push(Resolved::AggregateLive(live_agg_specs.len()));
                        live_agg_specs.push(spec.clone());
                        live_agg_uids.push(*uid);
                    }
                }
            }
        }
        let num_live = live_agg_specs.len();
        let deepest = DeepestLevel::of(&resolved, &ext_indices, &named, mode);
        StepSpec {
            fractoid,
            graph,
            resolved,
            ext_indices,
            live_agg_specs,
            live_agg_uids,
            named,
            rules,
            id_labels,
            deepest,
            merged: Mutex::new((0..num_live).map(|_| None).collect()),
            mode,
            roots_override: None,
            collected: Mutex::new(Vec::new()),
            counter: AtomicU64::new(0),
            participation: Mutex::new(None),
        }
    }
}

/// The result of the aggregation named `name` that primitive `i` reads,
/// which an earlier step computed.
fn read_source(fractoid: &Fractoid, prims: &[Primitive], i: usize, name: &str) -> Arc<AggResult> {
    #[expect(
        clippy::expect_used,
        reason = "resolution re-walks the same primitives split_steps already validated; a \
                  miss here is unreachable"
    )]
    let uid = resolve_source(prims, i, name).expect("workflow reads unknown aggregation");
    #[expect(
        clippy::expect_used,
        reason = "the source aggregation was computed by an earlier step in the order \
                  split_steps produced"
    )]
    fractoid
        .store
        .get(uid)
        .expect("step splitting must have computed the source aggregation")
}

/// One live pattern-keyed aggregation.
#[derive(Clone, Copy)]
struct NamedAgg {
    slot: usize,
    use_vlabels: bool,
    use_elabels: bool,
    /// The step's class rule that is its candidate rule, if it has one.
    rule: Option<usize>,
}

/// What a step does with the subgraphs of its deepest `Expand`: the least
/// that what comes after it needs.
enum DeepestLevel {
    /// Nothing after the deepest `Expand` reads more of a subgraph than its
    /// pattern: each parent's extensions are folded into these aggregations
    /// (none: only counted) one group per level they add to its pattern. A
    /// parent whose words cannot all be named is materialised.
    Folded(Vec<NamedAgg>),
    /// Something reads the subgraph itself: `extend`, run the tail,
    /// `retract`.
    Materialised,
}

impl DeepestLevel {
    /// Decided from the step's shape alone: folded when the output mode
    /// reads no subgraph (`None`, `Count`) and every primitive after the
    /// deepest `Expand` is a replayed aggregation (a pass-through) or a live
    /// one keyed by pattern. A filter, a key/value aggregation, `Collect` and
    /// `TrackOnly` read the subgraph itself.
    fn of(
        resolved: &[Resolved],
        ext_indices: &[usize],
        named: &[Option<NamedAgg>],
        mode: OutputMode,
    ) -> Self {
        let Some(&deepest) = ext_indices.last() else {
            return DeepestLevel::Materialised;
        };
        if !matches!(mode, OutputMode::None | OutputMode::Count) {
            return DeepestLevel::Materialised;
        }
        let mut tail = Vec::new();
        for r in &resolved[deepest + 1..] {
            match r {
                Resolved::AggregateReplayed => {}
                Resolved::AggregateLive(slot) => match named[*slot] {
                    Some(a) => tail.push(a),
                    None => return DeepestLevel::Materialised,
                },
                Resolved::Expand
                | Resolved::Filter(_)
                | Resolved::AggFilter { .. }
                | Resolved::PatternFilter { .. } => return DeepestLevel::Materialised,
            }
        }
        DeepestLevel::Folded(tail)
    }
}

/// One parent's extensions grouped by the level each adds to its quick
/// pattern under one aggregation's label flags.
#[derive(Default)]
struct LevelGroups {
    /// Each distinct level, in the order first met, with its leaf count.
    levels: Vec<(Level, usize)>,
    /// Whether the last tally indexed `levels` rather than scanning them;
    /// the open-addressed index, per slot the stamp of the tally that filled
    /// it and the level's position.
    indexed: bool,
    index: Vec<(u32, u32)>,
    stamp: u32,
    /// Per word of an indexed tally that appends a vertex: its level's
    /// position and the vertex. A scanned tally writes nothing per word.
    tags: Vec<(u32, u32)>,
    /// The vertices the leaves append, level after level, and where each
    /// level's run ends: placed by an indexed tally as it groups, and after a
    /// scanned one only when a fold asks (a census never does).
    added: OnceCell<(Vec<u32>, Vec<usize>)>,
}

impl LevelGroups {
    /// Groups `words` by their levels: per word one `name` and one match
    /// against the levels met so far, a scan or, when `indexed`, a hash
    /// probe. `false` as soon as a word cannot be named.
    #[inline]
    fn tally(
        &mut self,
        words: &[u64],
        name: impl Fn(u64) -> Option<(Level, Option<u32>)>,
        indexed: bool,
    ) -> bool {
        self.levels.clear();
        let mut listed = self.added.take().unwrap_or_default();
        self.indexed = indexed;
        if indexed {
            self.tags.clear();
            self.stamp = self.stamp.wrapping_add(1);
            let slots = (2 * words.len()).next_power_of_two();
            if self.index.len() < slots || self.stamp == 0 {
                self.index = vec![(0, 0); slots.max(self.index.len())];
                self.stamp = 1;
            }
        }
        for &w in words {
            let Some((level, v)) = name(w) else {
                return false;
            };
            if !indexed {
                match self.levels.iter_mut().find(|(l, _)| *l == level) {
                    Some((_, n)) => *n += 1,
                    None => self.levels.push((level, 1)),
                }
                continue;
            }
            let at = match self.find(&level) {
                Ok(at) => {
                    self.levels[at].1 += 1;
                    at
                }
                Err(slot) => {
                    self.index[slot] = (self.stamp, self.levels.len() as u32);
                    self.levels.push((level, 1));
                    self.levels.len() - 1
                }
            };
            if let Some(v) = v {
                self.tags.push((at as u32, v));
            }
        }
        if indexed {
            place(self.levels.len(), &self.tags, &mut listed);
            self.added = OnceCell::from(listed);
        }
        true
    }

    /// The position of `level` among the last tally's levels; else, when
    /// they are indexed, the free slot it would take.
    #[inline]
    fn find(&self, level: &Level) -> Result<usize, usize> {
        if !self.indexed {
            return self.levels.iter().position(|(l, _)| l == level).ok_or(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = level_hash(level) & mask;
        loop {
            let (stamp, at) = self.index[slot];
            if stamp != self.stamp {
                return Err(slot);
            }
            if self.levels[at as usize].0 == *level {
                return Ok(at as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The vertices the leaves of level `at` of the last tally of `words`
    /// append, in word order; empty for a closing edge's level.
    fn added(
        &self,
        at: usize,
        words: &[u64],
        name: &dyn Fn(u64) -> Option<(Level, Option<u32>)>,
    ) -> &[u32] {
        let (added, ends) = self.added.get_or_init(|| {
            // A scanned tally tagged nothing: its words are named again.
            let tags: Vec<(u32, u32)> = (words.iter().filter_map(|&w| name(w)))
                .filter_map(|(level, v)| Some((self.find(&level).ok()? as u32, v?)))
                .collect();
            let mut listed = Default::default();
            place(self.levels.len(), &tags, &mut listed);
            listed
        });
        &added[at.checked_sub(1).map_or(0, |before| ends[before])..ends[at]]
    }
}

/// Places each tagged vertex in the run of its level, one of `levels`, in
/// tag order, by a counting sort: each level's run starts where the last
/// ends, and `ends[at]` moves past its vertices.
fn place(levels: usize, tags: &[(u32, u32)], (added, ends): &mut (Vec<u32>, Vec<usize>)) {
    ends.clear();
    ends.resize(levels, 0);
    for &(at, _) in tags {
        ends[at as usize] += 1;
    }
    let mut start = 0;
    for end in ends.iter_mut() {
        (*end, start) = (start, start + *end);
    }
    added.clear();
    added.resize(tags.len(), 0);
    for &(at, v) in tags {
        added[ends[at as usize]] = v;
        ends[at as usize] += 1;
    }
}

/// A hash of `level` for [`LevelGroups`]'s index.
fn level_hash(level: &Level) -> usize {
    let (a, b) = match *level {
        Level::Vertex { label, mask } => (label, mask),
        Level::Edge {
            lo,
            hi,
            label,
            new_vertex,
        } => (
            label,
            new_vertex.map_or(0, |l| l.wrapping_add(1)) << 16 ^ (lo as u32) << 8 ^ hi as u32,
        ),
    };
    (((a as u64) << 32 | b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize
}

impl JobSpec for StepSpec<'_> {
    fn roots(&self) -> Vec<u64> {
        if let Some(roots) = &self.roots_override {
            return roots.clone();
        }
        let mut enumerator = (self.fractoid.factory)(self.graph);
        let sg = Subgraph::new(self.graph);
        let mut roots = Vec::new();
        enumerator.compute_extensions(self.graph, &sg, &mut roots);
        roots
    }

    fn make_core_task<'s>(&'s self, _id: GlobalCoreId) -> Box<dyn CoreTask + 's> {
        let shards: Vec<Box<dyn AggShard>> =
            self.live_agg_specs.iter().map(|s| s.new_shard()).collect();
        let staged_shards: Vec<Box<dyn AggShard>> =
            self.live_agg_specs.iter().map(|s| s.new_shard()).collect();
        let enumerator = (self.fractoid.factory)(self.graph);
        Box::new(StepTask {
            spec: self,
            kind: enumerator.word_kind(),
            enumerator,
            sg: Subgraph::new(self.graph),
            ids: Vec::new(),
            rules: (self.rules.iter())
                .map(|(keep, source)| ClassRule::new(keep.clone(), source.clone()))
                .collect(),
            shards,
            staged_shards,
            words: Vec::new(),
            collected: Vec::new(),
            staged_collected: Vec::new(),
            count: 0,
            staged_count: 0,
            part: if self.mode.tracks_participation() {
                Some(Participation {
                    vertices: Bitset::new(self.graph.num_vertices()),
                    edges: Bitset::new(self.graph.num_edges()),
                })
            } else {
                None
            },
            levels_since_track: 0,
            levels_registered: 0,
            exts_pool: Vec::new(),
            groups: Vec::new(),
        })
    }
}

/// The per-core DFS of Algorithm 1.
///
/// Result state is split in two: the *durable* side (`shards`,
/// `collected`, `count`) holds only results committed by completed units,
/// while the *staged* side (`staged_shards`, `staged_collected`,
/// `staged_count`) accumulates the unit currently being processed.
/// `process_unit` commits staged → durable on normal return; the
/// supervisor's `abort_unit` discards the staged side before re-executing
/// a failed unit — so retries and worker-death re-executions are
/// exactly-once. Participation masks are exempt: bit-sets are monotone and
/// re-execution re-derives the same bits, so double-marking is idempotent.
struct StepTask<'a> {
    spec: &'a StepSpec<'a>,
    enumerator: Box<dyn SubgraphEnumerator>,
    /// What the enumerator's words are, when they can name their levels.
    kind: Option<WordKind>,
    sg: Subgraph,
    /// When the step keeps them ([`StepSpec::id_labels`]): the quick id of
    /// each materialised level of `sg`, from the unit's word up.
    ids: Vec<u32>,
    /// This core's evaluation of the step's class rules, by index.
    rules: Vec<ClassRule>,
    shards: Vec<Box<dyn AggShard>>,
    /// Per-unit staging shards, drained into `shards` on unit commit.
    staged_shards: Vec<Box<dyn AggShard>>,
    words: Vec<u64>,
    collected: Vec<SubgraphData>,
    /// Per-unit staged result subgraphs, appended to `collected` on commit.
    staged_collected: Vec<SubgraphData>,
    count: u64,
    /// Per-unit staged count, folded into `count` on commit.
    staged_count: u64,
    part: Option<Participation>,
    levels_since_track: u32,
    /// Stealable levels currently registered by this unit (bounds how deep
    /// the stealable frontier grows — see [`MAX_REGISTERED_LEVELS`]).
    levels_registered: usize,
    /// Spare extension buffers for inlined (unregistered) levels, one per
    /// active inlined depth, recycled across the whole job.
    exts_pool: Vec<Vec<u64>>,
    /// Scratch of [`fold_deepest`](Self::fold_deepest), one per aggregation
    /// it folds into.
    groups: Vec<LevelGroups>,
}

/// How many stealable levels one dispatched unit registers before the DFS
/// switches to inline (queue-free) expansion. Thieves take the shallowest
/// level with work (§4.2) — the largest subtrees — so registering deeper
/// levels mostly buys per-node `Arc`/queue overhead, not balance. The
/// frontier still deepens adaptively: a stolen unit re-registers its own
/// shallowest level on the thief.
const MAX_REGISTERED_LEVELS: usize = 1;

/// The top of a DFS id stack kept under label flags `kept`, for a reader
/// asking under `labels`: `None` when they differ or nothing is kept.
#[inline]
fn stacked_id(ids: &[u32], kept: Option<(bool, bool)>, labels: (bool, bool)) -> Option<u32> {
    ids.last().copied().filter(|_| kept == Some(labels))
}

impl StepTask<'_> {
    /// Extends `sg` by `w` and, when the step keeps quick ids, pushes the
    /// id of the result: one trie probe off the parent's id when `w` names
    /// its level (named before `extend`), else its whole pattern interned (a
    /// unit's word, a root edge).
    #[inline]
    fn descend(&mut self, w: u64) {
        let g = self.spec.graph;
        let Some((vl, el)) = self.spec.id_labels else {
            return self.enumerator.extend(g, &mut self.sg, w);
        };
        let step = match (self.ids.last(), self.kind) {
            (Some(&parent), Some(kind)) => {
                kind.level(g, &self.sg, w, vl, el).map(|l| (parent, l.0))
            }
            _ => None,
        };
        self.enumerator.extend(g, &mut self.sg, w);
        let view = SubgraphView {
            graph: g,
            subgraph: &self.sg,
        };
        let id = with_patterns(|_, table| match step {
            Some((parent, level)) => table.child(parent, level),
            None => view.intern(table, vl, el),
        });
        self.ids.push(id);
    }

    /// Undoes the last [`descend`](Self::descend).
    #[inline]
    fn ascend(&mut self) {
        self.enumerator.retract(self.spec.graph, &mut self.sg);
        self.ids.pop();
    }

    /// Folds the extensions `exts` of the current subgraph into `tail`
    /// without materialising them: per aggregation one parent id (the DFS
    /// stack's top when it is kept under the aggregation's label flags, else
    /// an intern), and per level the words add one trie probe
    /// (`PatternTable::child`) and, unless the aggregation's candidate rule
    /// refuses the class (one indexed load once the class was asked), one
    /// group fold. `false`, having folded nothing, when a word cannot say its
    /// level under some aggregation's label flags (an opaque word, a root
    /// edge, a vertex word asked for edge labels).
    fn fold_deepest(&mut self, tail: &[NamedAgg], exts: &[u64]) -> bool {
        let folded = match self.kind {
            _ if tail.is_empty() => true,
            Some(WordKind::Vertex) => self.fold_named(tail, exts, false, |g, sg, w, vl, el| {
                WordKind::Vertex.level(g, sg, w, vl, el)
            }),
            Some(WordKind::Edge) => self.fold_named(tail, exts, true, |g, sg, w, vl, el| {
                WordKind::Edge.level(g, sg, w, vl, el)
            }),
            None => false,
        };
        if folded && self.spec.mode.counts() {
            self.staged_count += exts.len() as u64;
        }
        folded
    }

    /// [`fold_deepest`](Self::fold_deepest) over words that `level` names,
    /// `indexed` for edge words (tens of levels per parent, not a few).
    #[inline]
    fn fold_named(
        &mut self,
        tail: &[NamedAgg],
        exts: &[u64],
        indexed: bool,
        level: impl Fn(&Graph, &Subgraph, u64, bool, bool) -> Option<(Level, Option<u32>)> + Copy,
    ) -> bool {
        let (g, sg) = (self.spec.graph, &self.sg);
        let namer = |a: &NamedAgg| {
            let (vl, el) = (a.use_vlabels, a.use_elabels);
            move |w| level(g, sg, w, vl, el)
        };
        self.groups.resize_with(tail.len(), LevelGroups::default);
        for (a, groups) in tail.iter().zip(&mut self.groups) {
            if !groups.tally(exts, namer(a), indexed) {
                return false;
            }
        }
        let view = SubgraphView {
            graph: g,
            subgraph: sg,
        };
        let (all_groups, staged, rules) = (&self.groups, &mut self.staged_shards, &mut self.rules);
        let (ids, id_labels) = (&self.ids, self.spec.id_labels);
        with_patterns(|uid, table| {
            for (a, groups) in tail.iter().zip(all_groups) {
                let (name, shard) = (namer(a), &mut staged[a.slot]);
                let labels = (a.use_vlabels, a.use_elabels);
                let parent = stacked_id(ids, id_labels, labels)
                    .unwrap_or_else(|| view.intern(table, labels.0, labels.1));
                let mut rule = a.rule.map(|r| &mut rules[r]);
                for (at, &(level, n)) in groups.levels.iter().enumerate() {
                    let (id, class) = classify_child(uid, table, parent, level);
                    if (rule.as_deref_mut()).is_none_or(|r| r.admits(class.index, table)) {
                        let vertices = || (sg.vertices(), groups.added(at, exts, &name));
                        shard.accumulate_named(Leaves::new(n, &vertices), class, table.form(id));
                    }
                }
            }
        });
        true
    }

    fn view(&self) -> SubgraphView<'_> {
        SubgraphView {
            graph: self.spec.graph,
            subgraph: &self.sg,
        }
    }

    /// Folds the current subgraph into live aggregation `slot`: a
    /// pattern-keyed one by its class (the DFS stack's top id when kept under
    /// its label flags), unless its candidate rule refuses the class.
    fn accumulate(&mut self, slot: usize) {
        let view = SubgraphView {
            graph: self.spec.graph,
            subgraph: &self.sg,
        };
        let shard = &mut self.staged_shards[slot];
        let Some(a) = self.spec.named[slot] else {
            return shard.accumulate(&view);
        };
        let labels = (a.use_vlabels, a.use_elabels);
        let top = stacked_id(&self.ids, self.spec.id_labels, labels);
        let rule = a.rule.map(|r| &mut self.rules[r]);
        with_patterns(|uid, table| {
            let id = top.unwrap_or_else(|| view.intern(table, labels.0, labels.1));
            let class = PatternClass {
                table: uid,
                index: table.class(id),
            };
            if rule.is_none_or(|r| r.admits(class.index, table)) {
                let vertices = || (view.vertices(), &[][..]);
                shard.accumulate_named(Leaves::new(1, &vertices), class, table.form(id));
            }
        });
    }

    fn leaf(&mut self) {
        match self.spec.mode {
            OutputMode::Collect => {
                let fg = &self.spec.fractoid.fgraph;
                self.staged_collected.push(SubgraphData {
                    vertices: self
                        .sg
                        .vertices()
                        .iter()
                        .map(|&v| fg.orig_vertex(v))
                        .collect(),
                    edges: self.sg.edges().iter().map(|&e| fg.orig_edge(e)).collect(),
                });
            }
            OutputMode::Count => self.staged_count += 1,
            OutputMode::TrackOnly => {
                #[expect(
                    clippy::expect_used,
                    reason = "participation is Some whenever the mode is TrackOnly; both are set \
                              together at engine construction"
                )]
                let p = self.part.as_mut().expect("participation mask missing");
                for &v in self.sg.vertices() {
                    p.vertices.set(v as usize);
                }
                for &e in self.sg.edges() {
                    p.edges.set(e as usize);
                }
            }
            OutputMode::None => {}
        }
    }

    /// Moves what each candidate rule refused since the last commit into
    /// its aggregation's durable shard.
    fn commit_rejections(&mut self) {
        for a in self.spec.named.iter().flatten() {
            if let Some(rule) = a.rule {
                self.shards[a.slot].add_rejected(self.rules[rule].take_refused());
            }
        }
    }

    fn state_bytes(&self) -> u64 {
        (self.sg.resident_bytes()
            + self
                .shards
                .iter()
                .chain(self.staged_shards.iter())
                .map(|s| s.resident_bytes())
                .sum::<usize>()
            + (self.collected.len() + self.staged_collected.len()) * 48) as u64
    }

    fn dfs(&mut self, ctx: &mut CoreCtx<'_>, idx: usize) {
        if idx == self.spec.resolved.len() {
            self.leaf();
            return;
        }
        // Split the borrow: `resolved[idx]` is only read, never mutated.
        match &self.spec.resolved[idx] {
            Resolved::Expand => {
                // Registering a stealable level costs a `Vec` + `Arc<LevelQueue>`
                // allocation, a prefix clone and per-word queue atomics at
                // every interior node. Thieves take the shallowest level with
                // work (§4.2) — the largest subtrees — so each unit registers
                // only its shallowest `MAX_REGISTERED_LEVELS` Expand levels
                // and inlines everything deeper (including the deepest level,
                // whose extensions root no further expansion and would only
                // ever yield single-leaf steals). Inlined work stays inside
                // the current unit, so pending-counter accounting is
                // untouched, and the stealable frontier still deepens on
                // demand: a stolen prefix re-registers its own shallowest
                // level on the thief.
                let deepest = Some(&idx) == self.spec.ext_indices.last();
                if deepest || self.levels_registered >= MAX_REGISTERED_LEVELS {
                    let mut exts = self.exts_pool.pop().unwrap_or_default();
                    let ec =
                        self.enumerator
                            .compute_extensions(self.spec.graph, &self.sg, &mut exts);
                    ctx.add_ec(ec);
                    // The deepest level is folded from the parent when it
                    // can be; every other word is materialised.
                    let folded = match (deepest, &self.spec.deepest) {
                        (true, DeepestLevel::Folded(tail)) => self.fold_deepest(tail, &exts),
                        _ => false,
                    };
                    if !folded {
                        for &w in &exts {
                            self.descend(w);
                            self.dfs(ctx, idx + 1);
                            self.ascend();
                        }
                    }
                    self.exts_pool.push(exts);
                    return;
                }
                let mut exts = Vec::new();
                let ec = self
                    .enumerator
                    .compute_extensions(self.spec.graph, &self.sg, &mut exts);
                ctx.add_ec(ec);
                let level = ctx.push_level(&self.words, exts);
                self.levels_registered += 1;
                self.levels_since_track += 1;
                if self.levels_since_track >= 64 {
                    self.levels_since_track = 0;
                    ctx.track_state_bytes(self.state_bytes());
                }
                while let Some(w) = level.queue.claim() {
                    self.descend(w);
                    self.words.push(w);
                    self.dfs(ctx, idx + 1);
                    self.words.pop();
                    self.ascend();
                }
                ctx.pop_level();
                self.levels_registered -= 1;
            }
            Resolved::Filter(f) => {
                if f(&self.view()) {
                    self.dfs(ctx, idx + 1);
                }
            }
            Resolved::AggFilter { f, source } => {
                if f(&self.view(), source) {
                    self.dfs(ctx, idx + 1);
                }
            }
            &Resolved::PatternFilter { rule, labels } => {
                let top = stacked_id(&self.ids, self.spec.id_labels, labels);
                let view = SubgraphView {
                    graph: self.spec.graph,
                    subgraph: &self.sg,
                };
                let rule = &mut self.rules[rule];
                let kept = with_patterns(|_, table| {
                    let id = top.unwrap_or_else(|| view.intern(table, labels.0, labels.1));
                    rule.admits(table.class(id), table)
                });
                if kept {
                    self.dfs(ctx, idx + 1);
                }
            }
            Resolved::AggregateLive(slot) => {
                self.accumulate(*slot);
                self.dfs(ctx, idx + 1);
            }
            Resolved::AggregateReplayed => {
                self.dfs(ctx, idx + 1);
            }
        }
    }
}

impl CoreTask for StepTask<'_> {
    fn process_unit(&mut self, ctx: &mut CoreCtx<'_>, prefix: &[u64], word: u64) {
        // Rebuild enumeration state from the (possibly stolen) prefix —
        // the from-scratch principle applied to dispatched units.
        self.enumerator
            .rebuild(self.spec.graph, &mut self.sg, prefix);
        self.words.clear();
        self.words.extend_from_slice(prefix);
        self.levels_registered = 0;
        // A dispatched unit starts its id stack from its whole subgraph.
        self.ids.clear();
        self.descend(word);
        self.words.push(word);
        let resume = self.spec.ext_indices[self.words.len() - 1] + 1;
        self.dfs(ctx, resume);
        self.words.pop();
        self.ascend();
        // Commit: the unit completed, so its staged results become
        // durable. Everything before this point is discardable, which is
        // what lets the supervisor re-execute the unit from scratch.
        self.count += self.staged_count;
        self.staged_count = 0;
        if !self.staged_collected.is_empty() {
            self.collected.append(&mut self.staged_collected);
        }
        self.commit_rejections();
        for (durable, staged) in self.shards.iter_mut().zip(self.staged_shards.iter_mut()) {
            staged.drain_into(&mut **durable);
        }
        ctx.track_state_bytes(self.state_bytes());
        // Drain the enumerator's kernel counters into the core stats (one
        // flush per unit keeps the hot path counter-local).
        let kc = self.enumerator.take_kernel_counters();
        if !kc.is_empty() {
            ctx.add_kernels(
                kc.merge_calls,
                kc.gallop_calls,
                kc.bitset_calls,
                kc.elements_scanned,
                kc.arena_high_water_bytes,
            );
        }
    }

    fn abort_unit(&mut self, _ctx: &mut CoreCtx<'_>) {
        // Discard everything the failed attempt staged; the re-execution
        // (here or on another core) re-derives it from scratch.
        // Participation masks are intentionally left alone — they are
        // monotone and idempotent under replay (see the struct docs).
        self.staged_count = 0;
        self.staged_collected.clear();
        for s in &mut self.staged_shards {
            s.reset();
        }
        for rule in &mut self.rules {
            rule.abort();
        }
        self.levels_registered = 0;
        // Kernel counters of the aborted attempt would double-count scans:
        // drop them.
        let _ = self.enumerator.take_kernel_counters();
    }

    fn finish(&mut self, ctx: &mut CoreCtx<'_>) {
        ctx.track_state_bytes(self.state_bytes());
        // Every unit committed; what is left is the count of classes the
        // candidate rules refused during aborted units.
        self.commit_rejections();
        for (slot, shard) in self.shards.iter_mut().enumerate() {
            // Pattern-keyed entries sit under this core's interned classes;
            // only this thread can name them, so they get their codes here,
            // once per class, before the shard is handed to anyone else.
            shard.settle();
            ctx.record_agg_flush(slot as u64, shard.len() as u64);
        }
        let mut merged = self.spec.merged.lock();
        for (slot, shard) in self.shards.drain(..).enumerate() {
            match &mut merged[slot] {
                Some(acc) => acc.merge_from(shard),
                none => *none = Some(shard),
            }
        }
        drop(merged);
        if self.spec.mode.collects() && !self.collected.is_empty() {
            self.spec.collected.lock().append(&mut self.collected);
        }
        if self.spec.mode.counts() {
            // ordering: Relaxed — fetch_add atomicity is all we need; the total is
            // only read after the parallel phase joins.
            self.spec.counter.fetch_add(self.count, Ordering::Relaxed);
        }
        if let Some(p) = self.part.take() {
            let mut global = self.spec.participation.lock();
            match &mut *global {
                Some(g) => {
                    g.vertices.union_with(&p.vertices);
                    g.edges.union_with(&p.edges);
                }
                none => *none = Some(p),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FractalContext;
    use fractal_graph::builder::unlabeled_from_edges;
    use fractal_runtime::ClusterConfig;

    fn ctx() -> FractalContext {
        FractalContext::new(ClusterConfig::local(1, 2))
    }

    /// Triangle + tail: known counts for quick sanity checks.
    fn small() -> crate::context::FractalGraph {
        ctx().fractal_graph(unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]))
    }

    #[test]
    fn count_connected_subgraphs() {
        let fg = small();
        assert_eq!(fg.vfractoid().expand(1).count(), 4);
        assert_eq!(fg.vfractoid().expand(2).count(), 4); // 4 edges
        assert_eq!(fg.vfractoid().expand(3).count(), 3);
    }

    #[test]
    fn count_triangles_with_filter() {
        let fg = small();
        let triangles = fg
            .vfractoid()
            .expand(1)
            .filter(|s| s.last_level_edge_count() == s.num_vertices().saturating_sub(1))
            .explore(3)
            .count();
        assert_eq!(triangles, 1);
    }

    #[test]
    fn subgraph_output_collects_all() {
        let fg = small();
        let mut subs = fg.vfractoid().expand(2).subgraphs();
        subs = subs.into_iter().map(|s| s.normalized()).collect();
        subs.sort();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].vertices, vec![0, 1]);
        assert_eq!(subs[0].edges.len(), 1);
    }

    #[test]
    fn aggregation_counts_by_size_key() {
        let fg = small();
        let agg = fg
            .vfractoid()
            .expand(3)
            .aggregate("by_edges", |s| s.num_edges(), |_| 1u64, |a, v| *a += v)
            .aggregation::<usize, u64>("by_edges");
        // 3-vertex connected subgraphs: one triangle (3 edges) and two
        // paths (2 edges).
        assert_eq!(agg.get(&3), Some(&1));
        assert_eq!(agg.get(&2), Some(&2));
    }

    #[test]
    fn step_splitting_at_agg_filter() {
        let fg = small();
        let f = fg
            .efractoid()
            .expand(1)
            .aggregate("sup", |s| s.num_edges(), |_| 1u64, |a, v| *a += v)
            .filter_agg("sup", |_, agg| !agg.is_empty())
            .expand(1);
        let ends = split_steps(&f);
        assert_eq!(ends, vec![2, 4]);
        // After execution the aggregation is cached: re-splitting a derived
        // fractoid sees no new boundary.
        let report = f.execute();
        assert_eq!(report.num_steps(), 2);
        let extended = f.clone().expand(1);
        let ends2 = split_steps(&extended);
        assert_eq!(ends2, vec![5]);
    }

    #[test]
    fn a_candidate_rule_reads_its_source_like_an_aggregation_filter() {
        use crate::aggregation::Aggregator;
        use fractal_pattern::CanonicalCode;
        let fg = small();
        let census = || Arc::new(Aggregator::pattern_count("motifs", false, false));
        let ruled = Aggregator::pattern_count("motifs", false, false)
            .with_candidates("edges", |_, edges, _| edges.len() == 1);
        let f = fg
            .vfractoid()
            .expand(2)
            .aggregate_spec(Arc::new(Aggregator::pattern_count("edges", false, false)))
            .expand(1)
            .aggregate_spec(Arc::new(ruled));
        // The ruled aggregation waits for "edges", as a filter reading it
        // would, and keeps every class while its rule says so.
        assert_eq!(split_steps(&f), vec![4, 5]);
        let want = fg.vfractoid().expand(3).aggregate_spec(census());
        let got = f.aggregation_result("motifs");
        assert_eq!(
            *got.map::<CanonicalCode, u64>(),
            want.aggregation::<CanonicalCode, u64>("motifs")
        );
        assert_eq!(got.rejected(), (0, 0));
    }

    #[test]
    fn a_pattern_filter_asks_its_rule_once_per_class_per_core() {
        use crate::aggregation::Aggregator;
        use fractal_pattern::CanonicalCode;
        use fractal_runtime::FaultConfig;
        // Two cores; units panic at the registered level under the filter,
        // after it ran, and are retried.
        let faulty = ClusterConfig::local(1, 2).with_faults(FaultConfig::unit_panic(1, 1));
        let fg =
            FractalContext::new(faulty).fractal_graph(fractal_graph::gen::patents_like(150, 4, 3));
        let edges = || {
            fg.efractoid()
                .expand(1)
                .aggregate_spec(Arc::new(Aggregator::pattern_count("edges", true, true)))
        };
        let keep = |code: &CanonicalCode, edges: &AggResult| {
            edges.map::<CanonicalCode, u64>().get(code) > Some(&20)
        };
        type Asked = HashMap<(std::thread::ThreadId, CanonicalCode), u32>;
        let asked: Arc<Mutex<Asked>> = Arc::default();
        let log = asked.clone();
        let by_class = edges()
            .filter_agg_by_pattern("edges", true, true, move |code, edges, _| {
                let at = (std::thread::current().id(), code.clone());
                *log.lock().entry(at).or_default() += 1;
                keep(code, edges)
            })
            .expand(2);
        let by_view = edges()
            .filter_agg("edges", move |s, edges| {
                s.canonical_form(true, true, |form| keep(form.code, edges))
            })
            .expand(2);
        let (count, report) = by_class.count_with_report();
        assert_eq!(count, by_view.count());
        let retried: u64 = (report.steps.iter()).map(|s| s.faults.units_retried).sum();
        assert!(retried > 0, "no unit was aborted and retried");
        let asked = asked.lock();
        let twice: Vec<_> = asked.iter().filter(|(_, &n)| n > 1).collect();
        assert!(
            twice.is_empty(),
            "asked more than once on a core: {twice:?}"
        );
        let classes: std::collections::HashSet<_> = asked.keys().map(|(_, code)| code).collect();
        let edge_counts = edges().aggregation_result("edges");
        let kept = classes.iter().filter(|code| keep(code, &edge_counts));
        assert!(kept.count() < classes.len(), "the filter refused no class");
        assert!(asked.len() <= 2 * classes.len());
    }

    #[test]
    fn agg_filter_prunes_and_results_match() {
        // Two-step workflow: count single edges by a bucket key, then only
        // extend subgraphs whose first-edge bucket survived a threshold.
        let fg = small();
        let two_step = fg
            .efractoid()
            .expand(1)
            .aggregate_filtered(
                "bucket",
                |s| s.edges()[0] % 2, // bucket by parity of first edge id
                |_| 1u64,
                |a, v| *a += v,
                |_, &count| count >= 2, // only the bucket with >= 2 edges
            )
            .filter_agg("bucket", |s, agg| {
                agg.contains_key::<u32, u64>(&(s.edges()[0] % 2))
            })
            .expand(1);
        let report = two_step.execute();
        assert_eq!(report.num_steps(), 2);
        let survivors = two_step.count();
        // Edges 0..4: parity buckets {0: edges 0,2; 1: edges 1,3} — both
        // have 2, so nothing pruned; count = all 2-edge connected
        // subgraphs. Tighten the threshold to prune instead:
        let pruned = fg
            .efractoid()
            .expand(1)
            .aggregate_filtered(
                "bucket2",
                |s| s.edges()[0], // each edge its own bucket
                |_| 1u64,
                |a, v| *a += v,
                |&k, _| k == 0, // keep only edge 0's bucket
            )
            .filter_agg("bucket2", |s, agg| {
                agg.contains_key::<u32, u64>(&s.edges()[0])
            })
            .expand(1)
            .count();
        assert!(pruned < survivors);
        // Exactly the 2-edge subgraphs whose canonical first edge is 0:
        // {0,1}, {0,2}, {0,3}? edge 0 = (0,1); adjacent edges are 1,2 ->
        // subgraphs {0,1} and {0,2} (canonical first must be the minimum).
        assert_eq!(pruned, 2);
    }

    #[test]
    fn participation_tracking_marks_result_elements() {
        let fg = small();
        // Track participation of triangles only.
        let report = fg
            .vfractoid()
            .expand(1)
            .filter(|s| s.last_level_edge_count() == s.num_vertices().saturating_sub(1))
            .explore(3)
            .execute_tracking_participation();
        let p = report.participation.expect("participation requested");
        // The triangle is 0,1,2 with edges 0,1,2; vertex 3 and edge 3 are
        // out.
        assert!(p.vertices.get(0) && p.vertices.get(1) && p.vertices.get(2));
        assert!(!p.vertices.get(3));
        assert!(p.edges.get(0) && p.edges.get(1) && p.edges.get(2));
        assert!(!p.edges.get(3));
    }

    #[test]
    fn output_ids_translate_through_reduction() {
        let fg = small();
        // Reduce away vertex 3 (keep 0,1,2) and list triangles.
        let reduced = fg.vfilter(|v, _| v.raw() != 3);
        let subs = reduced
            .vfractoid()
            .expand(3)
            .filter(|s| s.is_clique())
            .subgraphs();
        assert_eq!(subs.len(), 1);
        let s = subs[0].clone().normalized();
        // Ids are original-graph ids.
        assert_eq!(s.vertices, vec![0, 1, 2]);
        assert_eq!(s.edges, vec![0, 1, 2]);
    }

    #[test]
    fn traced_run_records_agg_flushes_and_levels() {
        use fractal_runtime::trace::{EventKind, TraceConfig};
        let ctx =
            FractalContext::new(ClusterConfig::local(1, 2).with_trace(TraceConfig::enabled()));
        let fg = ctx.fractal_graph(unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]));
        let report = fg
            .vfractoid()
            .expand(3)
            .aggregate("by_edges", |s| s.num_edges(), |_| 1u64, |a, v| *a += v)
            .execute();
        assert_eq!(report.num_steps(), 1);
        let dump = report.steps[0].trace.as_ref().expect("tracing enabled");
        let count_kind = |k: EventKind| {
            dump.cores
                .iter()
                .flat_map(|c| c.events.iter())
                .filter(|e| e.kind == k)
                .count()
        };
        // One live aggregation slot flushed by each of the two cores.
        assert_eq!(count_kind(EventKind::AggFlush), 2);
        // The DFS registered (and unregistered) the middle enumeration
        // level (the deepest level is inlined and never registered).
        assert!(count_kind(EventKind::LevelPush) > 0);
        assert_eq!(
            count_kind(EventKind::LevelPush),
            count_kind(EventKind::LevelPop)
        );
        // And the JSONL stream of the whole execution is parseable.
        let mut buf = Vec::new();
        report.write_trace_jsonl(&mut buf).unwrap();
        assert!(
            fractal_runtime::TraceDump::parse_jsonl(std::str::from_utf8(&buf).unwrap()).is_ok()
        );
    }

    #[test]
    fn report_exposes_ec_and_steps() {
        let fg = small();
        let (count, report) = fg.vfractoid().expand(3).count_with_report();
        assert_eq!(count, 3);
        assert_eq!(report.num_steps(), 1);
        assert!(report.total_ec() > 0);
        assert!(report.elapsed.as_nanos() > 0);
    }

    /// What becomes of the deepest level of `f` run in `mode`:
    /// `"materialised"`, or `"folded"` followed by the label flags of each
    /// aggregation it is folded into.
    fn deepest_of(f: &Fractoid, mode: OutputMode) -> String {
        match StepSpec::build(f, &f.primitives, mode).deepest {
            DeepestLevel::Materialised => "materialised".into(),
            DeepestLevel::Folded(tail) => tail.iter().fold("folded".into(), |s, a| {
                format!("{s}({}, {})", a.use_vlabels, a.use_elabels)
            }),
        }
    }

    #[test]
    fn deepest_level_is_named_only_when_nothing_else_reads_it() {
        use crate::aggregation::Aggregator;
        let fg = small();
        let count =
            |name: &str, vl: bool, el: bool| Arc::new(Aggregator::pattern_count(name, vl, el));
        // FSM's shape: a fold that reads the vertices of each subgraph.
        let vertex_sets = Arc::new(Aggregator::by_pattern(
            "s",
            false,
            false,
            |_| Vec::new(),
            |all: &mut Vec<u32>, leaves, _| {
                let (parent, added) = leaves.vertices();
                all.extend_from_slice(parent);
                all.extend_from_slice(added)
            },
            |into, from| into.append(from),
        ));
        let census = fg
            .vfractoid()
            .expand(3)
            .aggregate_spec(count("m", false, false));
        assert_eq!(
            deepest_of(&census, OutputMode::None),
            "folded(false, false)"
        );
        assert_eq!(
            deepest_of(&census, OutputMode::Count),
            "folded(false, false)"
        );
        let folded = fg.vfractoid().expand(3).aggregate_spec(vertex_sets);
        assert_eq!(
            deepest_of(&folded, OutputMode::None),
            "folded(false, false)"
        );
        // Output that reads the subgraph itself has it materialised.
        assert_eq!(deepest_of(&census, OutputMode::Collect), "materialised");
        assert_eq!(deepest_of(&census, OutputMode::TrackOnly), "materialised");
        // Two pattern counts that disagree on labels are folded, each under
        // its own label flags.
        let two = census.clone().aggregate_spec(count("l", true, true));
        assert_eq!(
            deepest_of(&two, OutputMode::None),
            "folded(false, false)(true, true)"
        );
        // A pattern count of edge labels is folded too: an edge tip names
        // its level, a vertex tip cannot, and its parent's words are then
        // materialised at run time.
        let labeled = |grow: fn(&crate::context::FractalGraph) -> Fractoid| {
            grow(&fg).expand(3).aggregate_spec(count("l", false, true))
        };
        for grow in [
            crate::context::FractalGraph::vfractoid,
            crate::context::FractalGraph::efractoid,
        ] {
            assert_eq!(
                deepest_of(&labeled(grow), OutputMode::None),
                "folded(false, true)"
            );
        }
        // Nothing after the deepest Expand: its extensions are only counted.
        let bare = fg.vfractoid().expand(3);
        assert_eq!(deepest_of(&bare, OutputMode::Count), "folded");
        assert_eq!(deepest_of(&bare, OutputMode::Collect), "materialised");
        // A filter or a key/value aggregation after it reads a view.
        let filtered = fg
            .vfractoid()
            .expand(3)
            .filter(|_| true)
            .aggregate_spec(count("m", false, false));
        assert_eq!(deepest_of(&filtered, OutputMode::None), "materialised");
        let keyed = census
            .clone()
            .aggregate("e", |s| s.num_edges(), |_| 1u64, |a, v| *a += v);
        assert_eq!(deepest_of(&keyed, OutputMode::None), "materialised");
        // What sits before the deepest Expand does not matter.
        let earlier = fg
            .vfractoid()
            .expand(1)
            .filter(|_| true)
            .aggregate("e", |s| s.num_edges(), |_| 1u64, |a, v| *a += v)
            .expand(2)
            .aggregate_spec(count("m", false, false));
        assert_eq!(
            deepest_of(&earlier, OutputMode::None),
            "folded(false, false)"
        );
        // A replayed aggregation passes through: once computed, the census
        // leaves no aggregation to fold into and its leaves are counted.
        assert_eq!(census.count(), 3);
        assert_eq!(deepest_of(&census, OutputMode::Count), "folded");
        assert_eq!(census.count(), 3);
    }

    #[test]
    fn leaves_are_grouped_by_the_level_their_tips_add() {
        // A 10-vertex path with a pendant on each vertex and two vertices
        // joined to two of them. Vertex 0 alone has three extensions of one
        // level; the whole path has 12 of 12 distinct levels, masks past the
        // eighth position included. Scanned and indexed tallies agree.
        let mut edges: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
        edges.extend((0..10).map(|v| (v, v + 10)));
        edges.extend([(0, 20), (1, 20), (2, 21), (3, 21)]);
        let g = unlabeled_from_edges(22, &edges);
        let mut en = fractal_enum::VertexInducedEnumerator::new();
        let mut groups = LevelGroups::default();
        let mut levels = |sg: &Subgraph, indexed: bool, use_elabels: bool| {
            let mut words = Vec::new();
            en.compute_extensions(&g, sg, &mut words);
            let name = |w| WordKind::Vertex.level(&g, sg, w, false, use_elabels);
            // A vertex tip cannot say its edge labels: nothing is named.
            if !groups.tally(&words, name, indexed) {
                return None;
            }
            let mut want = std::collections::BTreeMap::<_, Vec<_>>::new();
            for (level, v) in words.iter().filter_map(|&w| name(w)) {
                let leaf = sg.vertices().iter().copied().chain(v).collect();
                want.entry(format!("{level:?}")).or_default().push(leaf);
            }
            let mut got = std::collections::BTreeMap::new();
            for (at, (level, n)) in groups.levels.iter().enumerate() {
                let leaves: Vec<Vec<u32>> = (groups.added(at, &words, &name).iter())
                    .map(|&v| sg.vertices().iter().copied().chain([v]).collect())
                    .collect();
                assert_eq!(leaves.len(), *n);
                assert!(got.insert(format!("{level:?}"), leaves).is_none());
            }
            assert_eq!(got, want, "one group per level, in word order");
            Some(
                got.into_values()
                    .map(|leaves| leaves.len())
                    .collect::<Vec<_>>(),
            )
        };
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, 0);
        for indexed in [false, true] {
            assert_eq!(levels(&sg, indexed, false), Some(vec![3]));
        }
        for v in 1..10 {
            sg.push_vertex_induced(&g, v, sg.adjacency_mask(&g, v));
        }
        for indexed in [false, true] {
            assert_eq!(levels(&sg, indexed, false), Some(vec![1; 12]));
            assert_eq!(levels(&sg, indexed, true), None);
        }
        // Edge words: the path 0-1-2 of a triangle with two pendants on 2
        // grows by one closing edge, a group of one leaf that appends no
        // vertex, and by two edges that append 3 and 4 in one group.
        let g = unlabeled_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (2, 4)]);
        let mut en = fractal_enum::EdgeInducedEnumerator::new();
        let mut sg = Subgraph::new(&g);
        for e in [0, 1] {
            en.extend(&g, &mut sg, e);
        }
        let mut words = Vec::new();
        en.compute_extensions(&g, &sg, &mut words);
        let name = |w| WordKind::Edge.level(&g, &sg, w, false, false);
        assert!(groups.tally(&words, name, true));
        let mut got: Vec<(usize, Vec<u32>)> = (0..groups.levels.len())
            .map(|at| {
                (
                    groups.levels[at].1,
                    groups.added(at, &words, &name).to_vec(),
                )
            })
            .collect();
        got.sort();
        assert_eq!(got, [(1, vec![]), (2, vec![3, 4])]);
    }

    #[test]
    #[should_panic(expected = "must start with expand")]
    fn workflow_must_start_with_expand() {
        let fg = small();
        fg.vfractoid().filter(|_| true).count();
    }
}
