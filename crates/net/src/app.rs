//! Everything a cluster job does that depends on its application.
//!
//! The driver, the worker and the serve daemon move words, frames and
//! blobs without knowing what an [`AppSpec`] computes; this module is the
//! one place that does (the blob codecs aside). Three pieces, one per
//! side of a round:
//!
//! - [`RoundRunner`] — a worker's round: the app's fractoid (FSM seeded
//!   with the aggregations of earlier rounds) or, for decomposed motifs,
//!   the compiled counting plan, run over the assigned roots and encoded
//!   as the `AggFlush` blob.
//! - [`Accumulator`] — the driver's reduction: merges every flush of a
//!   round, folds the round into the [`Committed`] result at its end (plan
//!   `finalize`, or the FSM support filter and convergence test) and emits
//!   the next round's FSM seed.
//! - [`Committed`] — a job's result as of its last fully flushed round.
//!   [`encode_result`] writes it as the blob that is journalled at every
//!   commit and served as the finished job's result; [`Committed::decode`]
//!   reads it back for journal resume and `fractal client result` alike.

use crate::blob::{self, AppSpec, BlobError};
use fractal_apps::cliques::{self, MAX_CLIQUE_SIZE};
use fractal_apps::fsm::{fsm_fractoid, fsm_support_aggregator, DomainSupport};
use fractal_apps::motifs;
use fractal_core::{execute_plan_step_distributed, Aggregator, FractalGraph, Fractoid};
use fractal_graph::Graph;
use fractal_pattern::pattern::MAX_PATTERN_VERTICES;
use fractal_pattern::{CanonicalCode, CountingPlan, GraphStats};
use fractal_runtime::{ExternalHooks, JobReport};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

impl AppSpec {
    /// Upper bound on driver rounds (FSM may stop earlier).
    pub fn max_rounds(&self) -> u32 {
        match self {
            AppSpec::Motifs { .. } | AppSpec::Kclist { .. } => 1,
            AppSpec::Fsm { max_edges, .. } => (*max_edges).max(1),
        }
    }

    /// The root work words of every round: the extensions of the empty
    /// subgraph, a pure function of graph + app (every vertex for the
    /// vertex-induced, decomposed and KClist paths — isolated vertices
    /// included, size-1 plan nodes count them — and every edge for FSM),
    /// so the driver lists them without building a fractoid (`app::tests`
    /// pins this against `Fractoid::step_roots`).
    pub fn root_words(&self, graph: &Graph) -> Vec<u64> {
        let count = match self {
            AppSpec::Motifs { .. } | AppSpec::Kclist { .. } => graph.num_vertices(),
            AppSpec::Fsm { .. } => graph.num_edges(),
        };
        (0..count as u64).collect()
    }

    /// Why no engine can run this spec, if its size is one no pattern or
    /// growth sequence can hold: a motif census of more than
    /// [`MAX_PATTERN_VERTICES`] vertices, FSM growing past
    /// `MAX_PATTERN_VERTICES - 1` edges (a tree of that many edges already
    /// spans every vertex a pattern has), or cliques of more than
    /// [`MAX_CLIQUE_SIZE`] vertices. The engine refuses such a workflow with
    /// a panic (and a subgraph too large to name panics a core thread), so
    /// every front door (CLI verbs, `serve` admission) refuses the spec with
    /// this reason.
    pub fn size_blocker(&self) -> Option<String> {
        let max = MAX_PATTERN_VERTICES as u32;
        match *self {
            AppSpec::Motifs { k, .. } if !(1..=max).contains(&k) => Some(format!(
                "motifs takes k in 1..={max}: a pattern holds at most {max} vertices"
            )),
            AppSpec::Fsm { max_edges, .. } if max_edges >= max => Some(format!(
                "fsm takes max-edges in 0..={}: a pattern holds at most {max} vertices",
                max - 1
            )),
            AppSpec::Kclist { k } if !(1..=MAX_CLIQUE_SIZE as u32).contains(&k) => Some(format!(
                "cliques takes k in 1..={MAX_CLIQUE_SIZE}: a vertex-induced subgraph grows to \
                 at most {MAX_CLIQUE_SIZE} vertices"
            )),
            _ => None,
        }
    }

    /// Short name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            AppSpec::Motifs { .. } => "motifs",
            AppSpec::Kclist { .. } => "kclist",
            AppSpec::Fsm { .. } => "fsm",
        }
    }
}

/// A worker's side of a job: runs each assigned round and encodes what it
/// flushes. Cheap to clone into a round's thread.
#[derive(Clone)]
pub(crate) struct RoundRunner {
    app: AppSpec,
    fg: FractalGraph,
    /// The globally filtered support maps of the rounds before the next
    /// one (FSM only), as the last seeded `Assign` shipped them.
    seeds: Arc<Vec<HashMap<CanonicalCode, DomainSupport>>>,
}

impl RoundRunner {
    /// A runner of `app` over the job's graph.
    pub fn new(app: AppSpec, fg: FractalGraph) -> Self {
        RoundRunner {
            app,
            fg,
            seeds: Arc::default(),
        }
    }

    /// Takes the seed blob of an `Assign` ([`blob::encode_fsm_seeds`]).
    pub fn set_seeds(&mut self, bytes: &[u8]) -> Result<(), BlobError> {
        self.seeds = Arc::new(blob::decode_fsm_seeds(bytes)?);
        Ok(())
    }

    /// The fractoid of `round`, with the aggregations of earlier rounds
    /// seeded (FSM). Decomposed motifs run a plan instead and never ask.
    fn fractoid(&self, round: u32) -> Fractoid {
        match self.app {
            AppSpec::Motifs { k, use_labels, .. } => {
                motifs::motifs_fractoid(&self.fg, k as usize, use_labels)
            }
            AppSpec::Kclist { k } => cliques::cliques_kclist_fractoid(&self.fg, k as usize),
            AppSpec::Fsm { min_support, .. } => {
                let fractoid = fsm_fractoid(&self.fg, min_support, round as usize + 1);
                let agg = fsm_support_aggregator(&self.fg, min_support);
                assert!(
                    self.seeds.len() >= round as usize,
                    "round {round} needs {round} seed maps, got {}",
                    self.seeds.len()
                );
                for (pos, map) in self.seeds.iter().take(round as usize).enumerate() {
                    fractoid.seed_aggregation(pos, agg.shard_from_map(map.clone()));
                }
                fractoid
            }
        }
    }

    /// Runs `round` over `roots` and returns what the worker flushes: the
    /// result count, the aggregation blob and the worker's report. A
    /// decomposed census compiles the counting plan from the shipped graph
    /// (deterministic — every worker and the driver compile the same plan)
    /// and flushes its raw per-node partial totals.
    pub fn run(
        &self,
        round: u32,
        roots: Vec<u64>,
        hooks: Option<Arc<dyn ExternalHooks>>,
    ) -> (u64, Vec<u8>, JobReport) {
        match self.app {
            AppSpec::Motifs {
                k,
                decomposed: true,
                ..
            } => {
                let plan = CountingPlan::plan_motifs(k as usize, GraphStats::of(self.fg.graph()));
                let (totals, report) = execute_plan_step_distributed(&self.fg, &plan, roots, hooks);
                (0, blob::encode_plan_totals(&totals), report)
            }
            AppSpec::Motifs { .. } => {
                let mut out = self
                    .fractoid(round)
                    .execute_step_distributed(roots, false, hooks);
                let map = Aggregator::<CanonicalCode, u64>::take_map(out.shards.remove(0));
                (out.count, blob::encode_motifs_map(&map), out.report)
            }
            AppSpec::Kclist { .. } => {
                let out = self
                    .fractoid(round)
                    .execute_step_distributed(roots, true, hooks);
                (out.count, Vec::new(), out.report)
            }
            AppSpec::Fsm { .. } => {
                let mut out = self
                    .fractoid(round)
                    .execute_step_distributed(roots, false, hooks);
                let map =
                    Aggregator::<CanonicalCode, DomainSupport>::take_map(out.shards.remove(0));
                (out.count, blob::encode_fsm_map(&map), out.report)
            }
        }
    }
}

/// A job's cumulative result as of its last fully flushed round.
#[derive(Debug, Clone, Default)]
pub struct Committed {
    /// Result-subgraph count (count-mode apps, e.g. KClist).
    pub count: u64,
    /// The motif census (Motifs only).
    pub motifs: HashMap<CanonicalCode, u64>,
    /// Per-round globally filtered frequent-pattern maps (FSM only).
    pub frequent: Vec<HashMap<CanonicalCode, DomainSupport>>,
}

impl Committed {
    /// Reads back a result blob of `app` ([`encode_result`]); the count
    /// travels beside it.
    pub fn decode(app: &AppSpec, count: u64, agg: &[u8]) -> Result<Self, BlobError> {
        let mut committed = Committed {
            count,
            ..Committed::default()
        };
        match app {
            AppSpec::Motifs { .. } => committed.motifs = blob::decode_motifs_map(agg)?,
            AppSpec::Kclist { .. } if !agg.is_empty() => {
                return Err(BlobError::Malformed("kclist result blob is not empty"))
            }
            AppSpec::Kclist { .. } => {}
            AppSpec::Fsm { .. } => committed.frequent = blob::decode_fsm_seeds(agg)?,
        }
        Ok(committed)
    }
}

/// The result blob of `app`: the motif map, nothing for KClist, or the
/// FSM seed list of every committed round.
pub(crate) fn encode_result(
    app: &AppSpec,
    motifs: &HashMap<CanonicalCode, u64>,
    frequent: &[HashMap<CanonicalCode, DomainSupport>],
) -> Vec<u8> {
    match app {
        AppSpec::Motifs { .. } => blob::encode_motifs_map(motifs),
        AppSpec::Kclist { .. } => Vec::new(),
        AppSpec::Fsm { .. } => blob::encode_fsm_seeds(frequent),
    }
}

/// The driver's side of a job: what the workers flushed this round, and
/// what every earlier round committed.
pub(crate) struct Accumulator {
    app: AppSpec,
    /// The plan every decomposed-motifs worker compiles; the driver owns
    /// its inclusion–exclusion `finalize` over the summed totals.
    plan: Option<CountingPlan>,
    /// Rounds committed, and whether FSM stopped early.
    rounds: u32,
    converged: bool,
    committed: Committed,
    // This round's flushes, merged.
    count: u64,
    motifs: HashMap<CanonicalCode, u64>,
    totals: Vec<i128>,
    fsm: HashMap<CanonicalCode, DomainSupport>,
}

impl Accumulator {
    /// An accumulator of `app` on `graph` that has committed `rounds`
    /// rounds into `committed` (0 and the default for a fresh job).
    pub fn new(app: AppSpec, graph: &Graph, rounds: u32, committed: Committed) -> Self {
        let plan = match app {
            AppSpec::Motifs {
                k,
                decomposed: true,
                ..
            } => Some(CountingPlan::plan_motifs(k as usize, GraphStats::of(graph))),
            _ => None,
        };
        let rounds = rounds.min(app.max_rounds());
        // A run whose last committed FSM round found nothing frequent broke
        // out of its round loop; a resumed one must not run more rounds.
        let converged = matches!(app, AppSpec::Fsm { .. })
            && rounds > 0
            && committed.frequent.last().is_some_and(|m| m.is_empty());
        Accumulator {
            app,
            plan,
            rounds,
            converged,
            committed,
            count: 0,
            motifs: HashMap::new(),
            totals: Vec::new(),
            fsm: HashMap::new(),
        }
    }

    /// The rounds left to run.
    pub fn remaining(&self) -> Range<u32> {
        let end = if self.converged {
            self.rounds
        } else {
            self.app.max_rounds()
        };
        self.rounds..end
    }

    /// Rounds committed so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The seed blob the next round's `Assign`s ship: the frequent maps of
    /// every committed round (FSM past its first round only).
    pub fn seed(&self) -> Option<Vec<u8>> {
        (matches!(self.app, AppSpec::Fsm { .. }) && self.rounds > 0)
            .then(|| blob::encode_fsm_seeds(&self.committed.frequent))
    }

    /// Merges one worker's `AggFlush` of the current round.
    pub fn absorb(&mut self, count: u64, agg: &[u8]) -> Result<(), BlobError> {
        self.count += count;
        match self.app {
            // Per-root plan totals are independent, so the element-wise
            // sum over workers is exact.
            AppSpec::Motifs {
                decomposed: true, ..
            } => {
                let totals = blob::decode_plan_totals(agg)?;
                if self.totals.is_empty() {
                    self.totals = totals;
                } else if self.totals.len() != totals.len() {
                    return Err(BlobError::Malformed("plan totals length mismatch"));
                } else {
                    for (t, v) in self.totals.iter_mut().zip(totals) {
                        *t = t
                            .checked_add(v)
                            .ok_or(BlobError::Malformed("plan totals overflow"))?;
                    }
                }
            }
            AppSpec::Motifs { .. } => {
                for (k, v) in blob::decode_motifs_map(agg)? {
                    *self.motifs.entry(k).or_insert(0) += v;
                }
            }
            AppSpec::Kclist { .. } => {}
            AppSpec::Fsm { .. } => {
                for (k, v) in blob::decode_fsm_map(agg)? {
                    match self.fsm.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(v),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(v);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Folds the round whose every flush is merged into the committed
    /// result. Returns whether the job is over early: an FSM round with
    /// nothing frequent, which is committed too, so that a run resumed
    /// from it stops where this one does.
    pub fn commit_round(&mut self) -> bool {
        self.rounds += 1;
        self.committed.count += std::mem::take(&mut self.count);
        match self.app {
            AppSpec::Motifs {
                decomposed: true, ..
            } => {
                let plan = self.plan.as_ref().expect("decomposed plan compiled");
                let mut totals = std::mem::take(&mut self.totals);
                if totals.is_empty() {
                    totals = vec![0; plan.nodes.len()];
                }
                self.committed.motifs = plan.finalize(&totals).into_iter().collect();
            }
            AppSpec::Motifs { .. } => self.committed.motifs = std::mem::take(&mut self.motifs),
            AppSpec::Kclist { .. } => {}
            AppSpec::Fsm { min_support, .. } => {
                // Workers flush unfiltered partial maps; the support
                // filter is only meaningful on the global merge.
                let filtered: HashMap<CanonicalCode, DomainSupport> = std::mem::take(&mut self.fsm)
                    .into_iter()
                    .filter(|(_, v)| v.has_enough_support(min_support))
                    .collect();
                self.converged = filtered.is_empty();
                self.committed.frequent.push(filtered);
            }
        }
        self.converged
    }

    /// The committed result.
    pub fn committed(&self) -> &Committed {
        &self.committed
    }

    /// The committed result's blob ([`encode_result`]).
    pub fn encode(&self) -> Vec<u8> {
        encode_result(&self.app, &self.committed.motifs, &self.committed.frequent)
    }

    /// The committed result, for the job's final report.
    pub fn into_committed(self) -> Committed {
        self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_core::FractalContext;
    use fractal_graph::gen;
    use fractal_runtime::ClusterConfig;

    /// One commit: rounds done, count, result blob.
    type Commit = (u32, u64, Vec<u8>);

    /// Runs `acc` to the end the way a driver and two workers do, each
    /// round's roots split over two flushes. Returns every commit and the
    /// seed shipped at the start of each round run. On the way it pins
    /// `AppSpec::root_words`, which the driver partitions, against the
    /// roots of the fractoid a worker builds.
    fn drive(app: AppSpec, fg: &FractalGraph, mut acc: Accumulator) -> (Vec<Commit>, Vec<Vec<u8>>) {
        let roots = app.root_words(fg.graph());
        let (a, b) = roots.split_at(roots.len() / 2);
        let mut runner = RoundRunner::new(app, fg.clone());
        let (mut commits, mut seeds) = (Vec::new(), Vec::new());
        for round in acc.remaining() {
            if let Some(seed) = acc.seed() {
                runner.set_seeds(&seed).expect("seed");
                seeds.push(seed);
            }
            if !matches!(
                app,
                AppSpec::Motifs {
                    decomposed: true,
                    ..
                }
            ) {
                assert_eq!(runner.fractoid(round).step_roots(), roots, "{app:?}");
            }
            for part in [a, b] {
                let (count, agg, _) = runner.run(round, part.to_vec(), None);
                acc.absorb(count, &agg).expect("flush");
            }
            let stop = acc.commit_round();
            commits.push((acc.rounds(), acc.committed().count, acc.encode()));
            if stop {
                break;
            }
        }
        (commits, seeds)
    }

    /// For motifs by enumeration (unlabeled and labeled), decomposed
    /// motifs, KClist and FSM: every commit decodes back to itself, an
    /// accumulator resumed from any commit ends where the uninterrupted one
    /// did and ships the same seeds, and a cut or padded blob is refused
    /// with a `BlobError`.
    #[test]
    fn committed_results_round_trip_and_resume_bit_identically() {
        let fg = FractalContext::new(ClusterConfig::local(1, 1))
            .fractal_graph(gen::patents_like(80, 3, 11));
        let motifs = |use_labels, decomposed| AppSpec::Motifs {
            k: 4,
            use_labels,
            decomposed,
        };
        let fsm = AppSpec::Fsm {
            min_support: 3,
            max_edges: 3,
        };
        let apps = [
            motifs(false, false),
            motifs(false, true),
            motifs(true, false),
        ];
        let mut ends = Vec::new();
        for app in apps.into_iter().chain([AppSpec::Kclist { k: 3 }, fsm]) {
            let fresh = Accumulator::new(app, fg.graph(), 0, Committed::default());
            let (commits, seeds) = drive(app, &fg, fresh);
            let end = commits.last().expect("a round ran");
            ends.push(end.clone());
            assert!(app != fsm || end.0 >= 2, "fsm ran {} round(s)", end.0);
            for (i, (rounds, count, agg)) in commits.iter().enumerate() {
                let name = format!("{app:?} commit {rounds}");
                let c = Committed::decode(&app, *count, agg).expect(&name);
                assert_eq!(c.count, *count, "{name}");
                assert_eq!(&encode_result(&app, &c.motifs, &c.frequent), agg, "{name}");

                let (rest, rest_seeds) =
                    drive(app, &fg, Accumulator::new(app, fg.graph(), *rounds, c));
                assert_eq!(rest, commits[i + 1..], "{name}");
                assert_eq!(
                    rest_seeds,
                    seeds[seeds.len() - rest_seeds.len()..],
                    "{name}"
                );

                for cut in 0..agg.len() {
                    assert!(
                        Committed::decode(&app, *count, &agg[..cut]).is_err(),
                        "{name}"
                    );
                }
                let padded = [&agg[..], &[0]].concat();
                assert!(Committed::decode(&app, *count, &padded).is_err(), "{name}");
            }
        }
        assert_eq!(
            ends[0], ends[1],
            "decomposed census differs from enumeration"
        );
    }
}
