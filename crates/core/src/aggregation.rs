//! The aggregation primitive (A): type-erased named aggregations.
//!
//! An aggregation is defined by the paper's four functions (Fig. 4, W2):
//! key extraction, value extraction, value reduction and an optional final
//! filter over the reduced mapping. Each core accumulates into a private
//! *shard*; shards are merged at the step barrier and the merged result is
//! stored under the aggregation's name for downstream aggregation filters
//! (W4) and output operators (O2).

use crate::view::{class_code, with_patterns, PatternClass, SubgraphView};
use fractal_pattern::canon::{InternedForm, PatternTable};
use fractal_pattern::CanonicalCode;
use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Object-safe aggregation specification (type-erased over K/V).
pub trait AggregatorSpec: Send + Sync {
    /// The aggregation's name (the paper's `aggName`).
    fn name(&self) -> &str;
    /// Creates an empty per-core shard.
    fn new_shard(&self) -> Box<dyn AggShard>;
    /// `(use_vlabels, use_elabels)` of an aggregation keyed by the canonical
    /// pattern ([`Aggregator::by_pattern`]), whose shards can be handed a
    /// group of subgraphs by class and vertex lists
    /// ([`AggShard::accumulate_named`]); `None` for one that reads the
    /// subgraph through key and value functions.
    fn pattern_flags(&self) -> Option<(bool, bool)>;
    /// This aggregation's candidate rule ([`Aggregator::with_candidates`])
    /// and the name of the aggregation it reads; `None` without a rule. The
    /// engine resolves the name as it resolves an aggregation filter's and
    /// applies the rule itself, once per class per core: a shard folds
    /// every group it is handed.
    fn candidates(&self) -> Option<(&str, &Arc<ClassRuleFn>)>;
}

/// A per-core accumulation shard.
///
/// Shards are also the unit of *replay-safe staging*: the engine
/// accumulates each dispatched unit into a staging shard and commits it
/// into the core's durable shard only when the unit completes
/// ([`drain_into`](Self::drain_into)), or discards it when the supervisor
/// aborts the unit for re-execution ([`reset`](Self::reset)). This is what
/// makes fault recovery exactly-once for aggregations.
pub trait AggShard: Send + Sync {
    /// Folds one subgraph into the shard.
    fn accumulate(&mut self, view: &SubgraphView<'_>);
    /// Folds a group of subgraphs into a pattern-keyed shard: their vertex
    /// lists, and the class and form their quick pattern was interned under
    /// with the shard's label flags, on this thread. Everything such a shard
    /// reads from a view. Panics on a shard whose
    /// [`AggregatorSpec::pattern_flags`] is `None`.
    fn accumulate_named(&mut self, leaves: Leaves<'_>, class: PatternClass, form: InternedForm<'_>);
    /// Adds `(classes, groups)` the candidate rule refused, as the engine
    /// counted them, to this shard's tally.
    fn add_rejected(&mut self, refused: (u64, u64));
    /// `(classes, groups)` the candidate rule refused: classes once per core
    /// that asked, groups once per committed unit. Merged and drained with
    /// the entries.
    fn rejected(&self) -> (u64, u64);
    /// Merges another shard of the same aggregation into this one.
    fn merge_from(&mut self, other: Box<dyn AggShard>);
    /// Moves every entry of this shard into `target` (same aggregation),
    /// leaving this shard empty but reusable — the per-unit commit path,
    /// which must not reallocate either shard.
    fn drain_into(&mut self, target: &mut dyn AggShard);
    /// Discards all entries, restoring the freshly-created state (the
    /// per-unit abort path).
    fn reset(&mut self);
    /// Resolves entries held under the calling core's interned pattern
    /// classes to their final keys. A pattern-keyed shard must be settled
    /// on the thread that accumulated it before another thread reads or
    /// merges it; settling anywhere else panics.
    fn settle(&mut self);
    /// Applies the final `aggFilter`, dropping entries that fail it.
    fn finalize(&mut self);
    /// Number of reduced entries.
    fn len(&self) -> usize;
    /// Total subgraphs folded into this shard, including through merges
    /// (monotonic; feeds the flight recorder's aggregation-flush accounting).
    fn accumulated(&self) -> u64;
    /// Whether the shard holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Estimated live bytes (memory accounting).
    fn resident_bytes(&self) -> usize;
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support (mutable; used by [`drain_into`](Self::drain_into)
    /// implementations to reach the target's concrete type).
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Downcast support (owned).
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

/// A group of subgraphs of one class and canonical form that a
/// pattern-keyed fold is handed at once: the leaves one parent grows by one
/// level, or one materialised subgraph. Each is the parent's vertex list
/// (insertion order) plus one appended vertex, or plus none: a closing
/// edge's group, and a materialised subgraph's (its whole list is the
/// parent), hold one.
#[derive(Clone, Copy)]
pub struct Leaves<'a> {
    len: usize,
    /// Lists the vertices when a fold asks: a census never does.
    vertices: &'a dyn Fn() -> (&'a [u32], &'a [u32]),
}

impl<'a> Leaves<'a> {
    /// `len` subgraphs whose parent and appended vertices `vertices` lists.
    pub fn new(len: usize, vertices: &'a dyn Fn() -> (&'a [u32], &'a [u32])) -> Self {
        Leaves { len, vertices }
    }

    /// Number of subgraphs in the group.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the group holds no subgraph.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The vertices every subgraph of the group starts with, and the vertex
    /// each appends to them, one per subgraph (none when they append none).
    pub fn vertices(&self) -> (&'a [u32], &'a [u32]) {
        (self.vertices)()
    }
}

type ExtractFn<T> = Arc<dyn Fn(&SubgraphView<'_>) -> T + Send + Sync>;
type ReduceFn<V> = Arc<dyn Fn(&mut V, V) + Send + Sync>;
type FilterFn<K, V> = Arc<dyn Fn(&K, &V) -> bool + Send + Sync>;
type EmptyFn<V> = Arc<dyn Fn(&CanonicalCode) -> V + Send + Sync>;
type FoldFn<V> = Arc<dyn Fn(&mut V, Leaves<'_>, InternedForm<'_>) + Send + Sync>;
type AbsorbFn<V> = Arc<dyn Fn(&mut V, &mut V) + Send + Sync>;
type SettleFn<K, V> = Arc<dyn Fn(PatternClass, &mut V) -> K + Send + Sync>;

/// A rule over pattern classes: whether a class, by its code, is kept,
/// given the result of the aggregation the rule reads and the calling core's
/// pattern table to name other patterns through. A candidate rule
/// ([`Aggregator::with_candidates`]) and a pattern-keyed aggregation filter
/// ([`Fractoid::filter_agg_by_pattern`](crate::Fractoid::filter_agg_by_pattern))
/// are both one.
pub type ClassRuleFn = dyn Fn(&CanonicalCode, &AggResult, &mut PatternTable) -> bool + Send + Sync;

/// A candidate rule and the name of the aggregation it reads.
#[derive(Clone)]
struct Candidates {
    source: String,
    keep: Arc<ClassRuleFn>,
}

/// A [`ClassRuleFn`] bound to the result it reads, as one core evaluates
/// it: each class of the core's pattern table is asked once, on first sight,
/// and its verdict is read after that with one indexed load. The verdicts
/// outlive units, aborted ones too: the rule reads nothing a unit changes.
pub(crate) struct ClassRule {
    keep: Arc<ClassRuleFn>,
    source: Arc<AggResult>,
    /// Per class index: `None` until asked.
    verdicts: Vec<Option<bool>>,
    /// `(classes, groups)` refused and not yet taken: a class when it is
    /// first asked, a group each time a refused class is read.
    refused: (u64, u64),
}

impl ClassRule {
    pub(crate) fn new(keep: Arc<ClassRuleFn>, source: Arc<AggResult>) -> Self {
        ClassRule {
            keep,
            source,
            verdicts: Vec::new(),
            refused: (0, 0),
        }
    }

    /// Whether the rule keeps class `class` of `table`, the calling core's
    /// table; counts one refused group when it does not.
    #[inline]
    pub(crate) fn admits(&mut self, class: u32, table: &mut PatternTable) -> bool {
        let kept = match self.verdicts.get(class as usize) {
            Some(&Some(kept)) => kept,
            _ => self.ask(class, table),
        };
        self.refused.1 += u64::from(!kept);
        kept
    }

    #[cold]
    fn ask(&mut self, class: u32, table: &mut PatternTable) -> bool {
        let code = table.class_code(class).clone();
        let kept = (self.keep)(&code, &self.source, table);
        let at = class as usize;
        if at >= self.verdicts.len() {
            self.verdicts.resize(at + 1, None);
        }
        self.verdicts[at] = Some(kept);
        self.refused.0 += u64::from(!kept);
        kept
    }

    /// Drops the groups an aborted unit refused; its classes stay counted,
    /// as their verdicts stay known.
    pub(crate) fn abort(&mut self) {
        self.refused.1 = 0;
    }

    /// The refusals counted since the last take.
    pub(crate) fn take_refused(&mut self) -> (u64, u64) {
        std::mem::take(&mut self.refused)
    }
}

/// How a shard turns one subgraph into (part of) an entry.
enum Source<K, V> {
    /// The paper's key and value functions, evaluated per subgraph; the
    /// value is reduced into the key's entry.
    Direct {
        key_fn: ExtractFn<K>,
        value_fn: ExtractFn<V>,
    },
    /// The key is the subgraph's canonical pattern `ρ(S)` and the subgraph
    /// is folded into that pattern's value in place. Values sit under the
    /// core's interned [`PatternClass`] (Arabesque's quick level: an index,
    /// no allocation per subgraph) on both the staged and the durable side,
    /// and are resolved to `K` once per class when the shard settles.
    Pattern {
        use_vlabels: bool,
        use_elabels: bool,
        empty: EmptyFn<V>,
        fold: FoldFn<V>,
        absorb: AbsorbFn<V>,
        /// Resolves a class to its key and passes its value through
        /// `absorb(value, empty(key))`.
        settle: SettleFn<K, V>,
    },
}

/// A typed aggregation over keys `K` and values `V` — the generic engine
/// behind [`crate::Fractoid::aggregate`].
pub struct Aggregator<K, V> {
    name: String,
    source: Arc<Source<K, V>>,
    reduce_fn: ReduceFn<V>,
    agg_filter: Option<FilterFn<K, V>>,
    candidates: Option<Candidates>,
}

impl<V> Aggregator<CanonicalCode, V>
where
    V: Send + Sync + 'static,
{
    /// An aggregation keyed by the canonical pattern of each subgraph (the
    /// paper's `ρ(S)`, Listings 1 and 3), whose values subgraphs are folded
    /// *into*. Same result map as keying [`Aggregator::new`] by
    /// [`SubgraphView::pattern_code`] (after the final filter, provided a
    /// candidate rule, [`with_candidates`](Self::with_candidates), refuses
    /// only classes that filter drops), for one pattern-table lookup and no
    /// value built per subgraph:
    ///
    /// - `empty(code)` makes the value of a pattern nothing was folded into;
    /// - `fold(value, leaves, form)` folds a group of subgraphs of one
    ///   canonical form in place, given as their parent's vertices in
    ///   insertion order and the vertex each appends ([`Leaves`]; `form.perm`
    ///   maps vertex positions to canonical positions, and the appended
    ///   vertex is at position `parent.len()`). That is all a fold can read:
    ///   a deepest-level subgraph is named from its parent and never
    ///   materialised, so there is no view to hand over. `fold` runs inside
    ///   the core's pattern table;
    /// - `absorb(into, from)` moves everything in `from` into `into` and
    ///   leaves `from` equal to `empty` with its allocations kept: a unit's
    ///   staged values are absorbed on commit and reused by the next unit.
    ///
    /// A commit moves a staged value whole into a class the durable side
    /// has not seen, so a value may reach the durable side exactly as its
    /// folds left it. No reader sees it that way: when a shard settles,
    /// each class's value passes once through `absorb(value, empty(code))`
    /// (one call per class per shard), so a value that finishes its folds
    /// only in `absorb` is always read finished.
    pub fn by_pattern(
        name: impl Into<String>,
        use_vlabels: bool,
        use_elabels: bool,
        empty: impl Fn(&CanonicalCode) -> V + Send + Sync + 'static,
        fold: impl Fn(&mut V, Leaves<'_>, InternedForm<'_>) + Send + Sync + 'static,
        absorb: impl Fn(&mut V, &mut V) + Send + Sync + 'static,
    ) -> Self {
        let empty: EmptyFn<V> = Arc::new(empty);
        let absorb: AbsorbFn<V> = Arc::new(absorb);
        let (by_value, settle_empty, settle_absorb) =
            (absorb.clone(), empty.clone(), absorb.clone());
        Aggregator {
            name: name.into(),
            source: Arc::new(Source::Pattern {
                use_vlabels,
                use_elabels,
                empty,
                fold: Arc::new(fold),
                absorb,
                settle: Arc::new(move |class, value| {
                    let code = class_code(class);
                    settle_absorb(value, &mut settle_empty(&code));
                    code
                }),
            }),
            reduce_fn: Arc::new(move |acc, mut v| by_value(acc, &mut v)),
            agg_filter: None,
            candidates: None,
        }
    }

    /// Adds a candidate rule to a [`by_pattern`](Self::by_pattern)
    /// aggregation: `keep(code, result, table)` says whether a class can
    /// pass the final filter, reading `result`, the nearest earlier
    /// aggregation named `source` in the workflow. Each core asks once per
    /// class, before anything of the class is staged or its canonical form
    /// is read, and reads the answer from a class-indexed array after that;
    /// a refused class stages, settles and ships nothing. The map
    /// after the final filter is the same provided `keep` refuses only
    /// classes that filter drops. A step runs this aggregation only once
    /// `source` is computed, as for an aggregation filter reading it.
    pub fn with_candidates(
        mut self,
        source: impl Into<String>,
        keep: impl Fn(&CanonicalCode, &AggResult, &mut PatternTable) -> bool + Send + Sync + 'static,
    ) -> Self {
        assert!(
            matches!(*self.source, Source::Pattern { .. }),
            "a candidate rule needs an aggregation keyed by pattern"
        );
        self.candidates = Some(Candidates {
            source: source.into(),
            keep: Arc::new(keep),
        });
        self
    }
}

impl Aggregator<CanonicalCode, u64> {
    /// The number of subgraphs of each canonical pattern (Listing 1's motif
    /// census): [`by_pattern`](Self::by_pattern) over a `u64`, which folds
    /// a group of subgraphs of one pattern with one `+=`.
    pub fn pattern_count(name: impl Into<String>, use_vlabels: bool, use_elabels: bool) -> Self {
        Self::by_pattern(
            name,
            use_vlabels,
            use_elabels,
            |_| 0,
            |n, leaves, _| *n += leaves.len() as u64,
            |into, from| *into += std::mem::take(from),
        )
    }
}

impl<K, V> Aggregator<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Builds an aggregation from the paper's three core functions.
    pub fn new(
        name: impl Into<String>,
        key_fn: impl Fn(&SubgraphView<'_>) -> K + Send + Sync + 'static,
        value_fn: impl Fn(&SubgraphView<'_>) -> V + Send + Sync + 'static,
        reduce_fn: impl Fn(&mut V, V) + Send + Sync + 'static,
    ) -> Self {
        Aggregator {
            name: name.into(),
            source: Arc::new(Source::Direct {
                key_fn: Arc::new(key_fn),
                value_fn: Arc::new(value_fn),
            }),
            reduce_fn: Arc::new(reduce_fn),
            agg_filter: None,
            candidates: None,
        }
    }

    /// Adds the optional final filter over reduced `(key, value)` entries.
    pub fn with_filter(mut self, f: impl Fn(&K, &V) -> bool + Send + Sync + 'static) -> Self {
        self.agg_filter = Some(Arc::new(f));
        self
    }

    /// Extracts the reduced mapping from a shard of this aggregation's
    /// type, consuming the shard. The serialization boundary of distributed
    /// runs: workers call this to turn their merged local shard into a
    /// wire-encodable map. Panics on a type mismatch, and on a shard that
    /// still holds another core's unsettled pattern classes.
    pub fn take_map(shard: Box<dyn AggShard>) -> HashMap<K, V> {
        let mut shard = shard
            .into_any()
            .downcast::<TypedShard<K, V>>()
            .expect("aggregation type mismatch");
        shard.settle();
        shard.map
    }

    /// Rebuilds a shard of this aggregation from a decoded mapping — the
    /// inverse of [`Aggregator::take_map`], used by the driver to seed a
    /// globally merged result back into a fractoid store.
    pub fn shard_from_map(&self, map: HashMap<K, V>) -> Box<dyn AggShard> {
        let accumulated = map.len() as u64;
        let mut shard = self.typed_shard();
        shard.approx_bytes = map.len() * entry_bytes::<K, V>();
        shard.accumulated = accumulated;
        shard.map = map;
        Box::new(shard)
    }

    fn typed_shard(&self) -> TypedShard<K, V> {
        TypedShard {
            map: HashMap::new(),
            classes: ClassLevel::default(),
            source: self.source.clone(),
            reduce_fn: self.reduce_fn.clone(),
            agg_filter: self.agg_filter.clone(),
            approx_bytes: 0,
            accumulated: 0,
            rejected: (0, 0),
        }
    }
}

/// Rough resident size of one reduced entry.
const fn entry_bytes<K, V>() -> usize {
    std::mem::size_of::<K>() + std::mem::size_of::<V>() + 32
}

/// One class's place in a [`ClassLevel`].
struct ClassSlot<V> {
    /// Made on a fold that finds none, and kept when a commit absorbs it, so
    /// a staging shard reuses one value (and its allocations) across units.
    value: Option<V>,
    /// Whether `value` holds something of the current unit (staging shard)
    /// or of any committed unit (durable shard).
    live: bool,
}

/// The class-indexed level of a [`Source::Pattern`] shard: one value per
/// interned class, plus the live classes so commit, abort and settle cost
/// what was touched and not what the table holds.
struct ClassLevel<V> {
    /// Table every class here belongs to (0: none yet).
    table: u64,
    slots: Vec<ClassSlot<V>>,
    live: Vec<u32>,
}

impl<V> Default for ClassLevel<V> {
    fn default() -> Self {
        ClassLevel {
            table: 0,
            slots: Vec::new(),
            live: Vec::new(),
        }
    }
}

impl<V> ClassLevel<V> {
    /// The slot of `class`, marked live.
    #[inline]
    fn slot(&mut self, class: PatternClass) -> &mut ClassSlot<V> {
        if self.table == 0 {
            self.table = class.table;
        }
        assert_eq!(
            self.table, class.table,
            "one shard folded pattern classes of two cores"
        );
        let at = class.index as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || ClassSlot {
                value: None,
                live: false,
            });
        }
        if !self.slots[at].live {
            self.slots[at].live = true;
            self.live.push(class.index);
        }
        &mut self.slots[at]
    }

    /// Commits every live value into `target`'s slot of the same class,
    /// leaving this level with no live class. A class `target` has not seen
    /// takes the value itself (a pattern met by one unit holds one value,
    /// not a durable one and an emptied staged one; it is as its folds left
    /// it until the next `absorb` into it or the shard settles); a class it
    /// has seen absorbs it, and the emptied value stays here, allocated, for
    /// the next unit.
    fn commit_into(&mut self, target: &mut ClassLevel<V>, absorb: &AbsorbFn<V>) {
        for index in self.live.drain(..) {
            let from = &mut self.slots[index as usize];
            from.live = false;
            let class = PatternClass {
                table: self.table,
                index,
            };
            match (&mut target.slot(class).value, &mut from.value) {
                (Some(into), Some(from)) => absorb(into, from),
                (into @ None, from) => *into = from.take(),
                (Some(_), None) => {}
            }
        }
    }

    /// Hands every live `(class, value)` to `sink`, leaving the level empty.
    fn drain(&mut self, mut sink: impl FnMut(PatternClass, V)) {
        for index in self.live.drain(..) {
            let slot = &mut self.slots[index as usize];
            slot.live = false;
            if let Some(value) = slot.value.take() {
                sink(
                    PatternClass {
                        table: self.table,
                        index,
                    },
                    value,
                );
            }
        }
    }
}

struct TypedShard<K, V> {
    /// Reduced entries under their final keys.
    map: HashMap<K, V>,
    /// Entries under interned pattern classes ([`Source::Pattern`] only;
    /// always empty otherwise), until [`AggShard::settle`] resolves them.
    classes: ClassLevel<V>,
    source: Arc<Source<K, V>>,
    reduce_fn: ReduceFn<V>,
    agg_filter: Option<FilterFn<K, V>>,
    /// Rough per-entry size estimate maintained incrementally.
    approx_bytes: usize,
    /// Total subgraphs folded (monotonic, merged additively).
    accumulated: u64,
    /// `(classes, groups)` the candidate rule refused, as the engine
    /// committed them ([`AggShard::add_rejected`]).
    rejected: (u64, u64),
}

/// Folds `(k, v)` into `map`, reducing into an existing entry.
fn fold_entry<K: Eq + Hash, V>(
    map: &mut HashMap<K, V>,
    approx_bytes: &mut usize,
    reduce: &ReduceFn<V>,
    k: K,
    v: V,
) {
    match map.entry(k) {
        std::collections::hash_map::Entry::Occupied(mut e) => reduce(e.get_mut(), v),
        std::collections::hash_map::Entry::Vacant(e) => {
            *approx_bytes += entry_bytes::<K, V>();
            e.insert(v);
        }
    }
}

impl<K, V> AggregatorSpec for Aggregator<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn new_shard(&self) -> Box<dyn AggShard> {
        Box::new(self.typed_shard())
    }

    fn pattern_flags(&self) -> Option<(bool, bool)> {
        match &*self.source {
            Source::Direct { .. } => None,
            Source::Pattern {
                use_vlabels,
                use_elabels,
                ..
            } => Some((*use_vlabels, *use_elabels)),
        }
    }

    fn candidates(&self) -> Option<(&str, &Arc<ClassRuleFn>)> {
        (self.candidates.as_ref()).map(|c| (c.source.as_str(), &c.keep))
    }
}

impl<K, V> AggShard for TypedShard<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn accumulate(&mut self, view: &SubgraphView<'_>) {
        match &*self.source {
            Source::Direct { key_fn, value_fn } => {
                self.accumulated += 1;
                fold_entry(
                    &mut self.map,
                    &mut self.approx_bytes,
                    &self.reduce_fn,
                    key_fn(view),
                    value_fn(view),
                )
            }
            &Source::Pattern {
                use_vlabels,
                use_elabels,
                ..
            } => with_patterns(|uid, table| {
                let (id, class) = view.interned(uid, table, use_vlabels, use_elabels);
                let vertices = || (view.vertices(), &[][..]);
                self.accumulate_named(Leaves::new(1, &vertices), class, table.form(id))
            }),
        }
    }

    fn accumulate_named(
        &mut self,
        leaves: Leaves<'_>,
        class: PatternClass,
        form: InternedForm<'_>,
    ) {
        let Source::Pattern { empty, fold, .. } = &*self.source else {
            panic!("a subgraph was named for an aggregation that is not keyed by pattern");
        };
        self.accumulated += leaves.len() as u64;
        let value = &mut self.classes.slot(class).value;
        fold(value.get_or_insert_with(|| empty(form.code)), leaves, form)
    }

    fn add_rejected(&mut self, (classes, groups): (u64, u64)) {
        self.rejected.0 += classes;
        self.rejected.1 += groups;
    }

    fn rejected(&self) -> (u64, u64) {
        self.rejected
    }

    fn merge_from(&mut self, other: Box<dyn AggShard>) {
        let mut other = other
            .into_any()
            .downcast::<TypedShard<K, V>>()
            .expect("merging shards of different aggregations");
        self.accumulated += other.accumulated;
        self.add_rejected(other.rejected);
        other.settle();
        for (k, v) in other.map.drain() {
            fold_entry(&mut self.map, &mut self.approx_bytes, &self.reduce_fn, k, v);
        }
    }

    fn drain_into(&mut self, target: &mut dyn AggShard) {
        let target = target
            .as_any_mut()
            .downcast_mut::<TypedShard<K, V>>()
            .expect("draining into a shard of a different aggregation");
        target.accumulated += self.accumulated;
        self.accumulated = 0;
        target.add_rejected(std::mem::take(&mut self.rejected));
        if let Source::Pattern { absorb, .. } = &*self.source {
            self.classes.commit_into(&mut target.classes, absorb);
        }
        for (k, v) in self.map.drain() {
            fold_entry(
                &mut target.map,
                &mut target.approx_bytes,
                &self.reduce_fn,
                k,
                v,
            );
        }
        self.approx_bytes = 0;
    }

    fn reset(&mut self) {
        self.map.clear();
        self.classes.drain(|_, _| {});
        self.approx_bytes = 0;
        self.accumulated = 0;
        self.rejected = (0, 0);
    }

    fn settle(&mut self) {
        if let Source::Pattern { settle, .. } = &*self.source {
            let (map, approx_bytes, reduce) =
                (&mut self.map, &mut self.approx_bytes, &self.reduce_fn);
            self.classes.drain(|class, mut v| {
                let key = settle(class, &mut v);
                fold_entry(map, approx_bytes, reduce, key, v)
            });
        }
    }

    fn finalize(&mut self) {
        self.settle();
        if let Some(f) = &self.agg_filter {
            self.map.retain(|k, v| f(k, v));
        }
    }

    fn len(&self) -> usize {
        self.map.len() + self.classes.live.len()
    }

    fn accumulated(&self) -> u64 {
        self.accumulated
    }

    fn resident_bytes(&self) -> usize {
        self.approx_bytes + self.classes.live.len() * entry_bytes::<K, V>()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// A merged, finalized aggregation result stored under its name.
pub struct AggResult {
    shard: Box<dyn AggShard>,
}

impl AggResult {
    pub(crate) fn new(shard: Box<dyn AggShard>) -> Self {
        AggResult { shard }
    }

    /// Wraps a shard as a result without finalizing it. Used when seeding
    /// driver-merged aggregations, whose final filter the driver already
    /// applied globally (filtering per-worker partials would be wrong).
    pub fn from_shard(shard: Box<dyn AggShard>) -> Self {
        AggResult { shard }
    }

    /// The reduced mapping, downcast to its concrete types. Panics when the
    /// requested types differ from the aggregation's actual types.
    pub fn map<K, V>(&self) -> &HashMap<K, V>
    where
        K: Eq + Hash + Clone + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        &self
            .shard
            .as_any()
            .downcast_ref::<TypedShard<K, V>>()
            .expect("aggregation type mismatch")
            .map
    }

    /// Whether `key` is present (the usual aggregation-filter probe).
    pub fn contains_key<K, V>(&self, key: &K) -> bool
    where
        K: Eq + Hash + Clone + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.map::<K, V>().contains_key(key)
    }

    /// Number of reduced entries.
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    /// Total subgraphs folded into this result across all cores.
    pub fn accumulated(&self) -> u64 {
        self.shard.accumulated()
    }

    /// `(classes, groups)` the aggregation's candidate rule refused, summed
    /// over cores ([`AggShard::rejected`]).
    pub fn rejected(&self) -> (u64, u64) {
        self.shard.rejected()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.shard.is_empty()
    }

    /// Estimated live bytes.
    pub fn resident_bytes(&self) -> usize {
        self.shard.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_enum::Subgraph;
    use fractal_graph::builder::unlabeled_from_edges;

    fn view<'a>(graph: &'a fractal_graph::Graph, subgraph: &'a Subgraph) -> SubgraphView<'a> {
        SubgraphView { graph, subgraph }
    }

    fn count_agg() -> Aggregator<usize, u64> {
        Aggregator::new(
            "counts",
            |view| view.num_vertices(),
            |_| 1u64,
            |acc, v| *acc += v,
        )
    }

    #[test]
    fn accumulate_and_reduce() {
        let g = unlabeled_from_edges(3, &[(0, 1), (1, 2)]);
        let spec = count_agg();
        let mut shard = spec.new_shard();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        shard.accumulate(&view(&g, &sg));
        sg.push_vertex_induced(&g, 1, sg.adjacency_mask(&g, 1));
        shard.accumulate(&view(&g, &sg));
        shard.accumulate(&view(&g, &sg));
        let result = AggResult::new(shard);
        assert_eq!(result.map::<usize, u64>()[&1], 1);
        assert_eq!(result.map::<usize, u64>()[&2], 2);
        assert_eq!(result.len(), 2);
        assert_eq!(result.accumulated(), 3);
        assert!(result.resident_bytes() > 0);
    }

    #[test]
    fn merge_shards() {
        let g = unlabeled_from_edges(2, &[(0, 1)]);
        let spec = count_agg();
        let mut a = spec.new_shard();
        let mut b = spec.new_shard();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        a.accumulate(&view(&g, &sg));
        b.accumulate(&view(&g, &sg));
        a.merge_from(b);
        let result = AggResult::new(a);
        assert_eq!(result.map::<usize, u64>()[&1], 2);
        assert_eq!(result.accumulated(), 2);
    }

    #[test]
    fn final_filter_drops_entries() {
        let g = unlabeled_from_edges(3, &[(0, 1), (1, 2)]);
        let spec = count_agg().with_filter(|_, &v| v >= 2);
        let mut shard = spec.new_shard();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        shard.accumulate(&view(&g, &sg));
        sg.push_vertex_induced(&g, 1, sg.adjacency_mask(&g, 1));
        shard.accumulate(&view(&g, &sg));
        shard.accumulate(&view(&g, &sg));
        shard.finalize();
        let result = AggResult::new(shard);
        assert_eq!(result.len(), 1);
        assert!(result.contains_key::<usize, u64>(&2));
        assert!(!result.contains_key::<usize, u64>(&1));
    }

    #[test]
    fn drain_into_commits_and_empties_the_staging_shard() {
        let g = unlabeled_from_edges(3, &[(0, 1), (1, 2)]);
        let spec = count_agg();
        let mut durable = spec.new_shard();
        let mut staged = spec.new_shard();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        durable.accumulate(&view(&g, &sg));
        staged.accumulate(&view(&g, &sg));
        sg.push_vertex_induced(&g, 1, sg.adjacency_mask(&g, 1));
        staged.accumulate(&view(&g, &sg));
        staged.drain_into(&mut *durable);
        assert!(staged.is_empty());
        assert_eq!(staged.accumulated(), 0);
        assert_eq!(staged.resident_bytes(), 0);
        // The staging shard is immediately reusable for the next unit.
        staged.accumulate(&view(&g, &sg));
        assert_eq!(staged.accumulated(), 1);
        let result = AggResult::new(durable);
        assert_eq!(result.map::<usize, u64>()[&1], 2);
        assert_eq!(result.map::<usize, u64>()[&2], 1);
        assert_eq!(result.accumulated(), 3);
    }

    #[test]
    fn reset_discards_staged_entries() {
        let g = unlabeled_from_edges(2, &[(0, 1)]);
        let spec = count_agg();
        let mut shard = spec.new_shard();
        let mut sg = Subgraph::new(&g);
        sg.push_vertex_induced(&g, 0, sg.adjacency_mask(&g, 0));
        shard.accumulate(&view(&g, &sg));
        assert!(!shard.is_empty());
        shard.reset();
        assert!(shard.is_empty());
        assert_eq!(shard.accumulated(), 0);
        assert_eq!(shard.resident_bytes(), 0);
    }

    /// A per-pattern vertex set: a value with something to leave behind.
    fn vertex_sets() -> Aggregator<CanonicalCode, Vec<u32>> {
        Aggregator::by_pattern(
            "vertex-sets",
            false,
            false,
            |_| Vec::new(),
            |set: &mut Vec<u32>, leaves, _| {
                let (parent, added) = leaves.vertices();
                set.extend_from_slice(parent);
                set.extend_from_slice(added);
                set.sort_unstable();
                set.dedup();
            },
            |into: &mut Vec<u32>, from: &mut Vec<u32>| {
                into.append(from);
                into.sort_unstable();
                into.dedup();
            },
        )
    }

    /// Folds every 3-vertex subgraph rooted at `root` into `shard`, each
    /// materialised and handed over as a view.
    fn run_unit(g: &fractal_graph::Graph, root: u32, shard: &mut dyn AggShard) {
        let mut sg = Subgraph::new(g);
        sg.push_vertex_induced(g, root, 0);
        crate::view::tests::for_each_leaf(g, &mut sg, 3, &mut |view| shard.accumulate(view));
    }

    /// [`run_unit`] the way the engine runs a census: 2-vertex parents are
    /// materialised, every leaf is named from its parent and, unless `rule`
    /// refuses its class, handed over as class + vertex list. Stops (a unit
    /// failing half-way) once `budget` leaves are folded; returns how many
    /// were.
    fn run_unit_named(
        g: &fractal_graph::Graph,
        root: u32,
        shard: &mut dyn AggShard,
        mut rule: Option<&mut ClassRule>,
        budget: u64,
    ) -> u64 {
        use fractal_enum::{SubgraphEnumerator, VertexInducedEnumerator};
        let mut sg = Subgraph::new(g);
        sg.push_vertex_induced(g, root, 0);
        let mut en = VertexInducedEnumerator::new();
        let mut folded = 0;
        crate::view::tests::for_each_leaf(g, &mut sg, 2, &mut |parent| {
            let mut exts = Vec::new();
            en.compute_extensions(g, parent.subgraph, &mut exts);
            let mut vertices = parent.vertices().to_vec();
            vertices.push(0);
            for w in exts {
                if folded == budget {
                    return;
                }
                let (level, v) = fractal_enum::WordKind::Vertex
                    .level(g, parent.subgraph, w, false, false)
                    .expect("vertex words are named without edge labels");
                vertices[2] = v.expect("a vertex word appends its vertex");
                with_patterns(|uid, table| {
                    let parent = parent.intern(table, false, false);
                    let (id, class) = crate::view::classify_child(uid, table, parent, level);
                    if (rule.as_deref_mut()).is_none_or(|r| r.admits(class.index, table)) {
                        let lists = || vertices.split_at(2);
                        shard.accumulate_named(Leaves::new(1, &lists), class, table.form(id))
                    }
                });
                folded += 1;
            }
        });
        folded
    }

    #[test]
    fn aborted_unit_leaves_reused_staged_values_empty() {
        // A pattern-keyed unit is folded, aborted and re-run in the same
        // staging shard: what commits must be what a fresh shard computes.
        let g = fractal_graph::gen::mico_like(40, 1, 5);
        let spec = vertex_sets();
        let mut fresh = spec.new_shard();
        run_unit(&g, 0, &mut *fresh);
        let leaves = fresh.accumulated();
        assert!(leaves > 0 && !fresh.is_empty());

        let (mut staged, mut durable) = (spec.new_shard(), spec.new_shard());
        // An earlier committed unit leaves reusable (empty) staged values.
        run_unit(&g, 1, &mut *staged);
        staged.drain_into(&mut *durable);
        assert!(staged.is_empty());
        let before = durable.accumulated();
        run_unit(&g, 0, &mut *staged);
        staged.reset();
        assert!(staged.is_empty());
        assert_eq!(staged.accumulated(), 0);
        assert_eq!(staged.resident_bytes(), 0);
        // The same again with named leaves, aborted half-way through them:
        // nothing of the failed attempt may survive in the reused values.
        assert_eq!(
            run_unit_named(&g, 0, &mut *staged, None, leaves / 2),
            leaves / 2
        );
        assert!(!staged.is_empty());
        staged.reset();
        assert!(staged.is_empty());
        assert_eq!(staged.accumulated(), 0);
        assert_eq!(run_unit_named(&g, 0, &mut *staged, None, u64::MAX), leaves);
        let mut rerun = spec.new_shard();
        staged.drain_into(&mut *rerun);
        assert!(staged.is_empty());
        assert_eq!(rerun.accumulated(), leaves);
        assert_eq!(durable.accumulated(), before);
        assert_eq!(
            Aggregator::<CanonicalCode, Vec<u32>>::take_map(rerun),
            Aggregator::<CanonicalCode, Vec<u32>>::take_map(fresh)
        );
    }

    #[test]
    fn units_touching_one_class_commit_to_the_union() {
        let g = fractal_graph::gen::mico_like(40, 1, 5);
        let spec = vertex_sets();
        let (mut staged, mut durable) = (spec.new_shard(), spec.new_shard());
        let mut want: HashMap<CanonicalCode, Vec<u32>> = HashMap::new();
        for root in [0, 1] {
            run_unit(&g, root, &mut *staged);
            staged.drain_into(&mut *durable);
            assert!(staged.is_empty());
            let mut alone = spec.new_shard();
            run_unit(&g, root, &mut *alone);
            for (code, set) in Aggregator::<CanonicalCode, Vec<u32>>::take_map(alone) {
                let all = want.entry(code).or_default();
                all.extend(set);
                all.sort_unstable();
                all.dedup();
            }
        }
        // Both units met the wedge, so its entry is a union of two commits.
        assert!(want
            .values()
            .any(|set| set.contains(&0) && set.contains(&1)));
        // Settling on the owning thread is what `StepTask::finish` does; the
        // shard can then be read anywhere.
        durable.settle();
        let got = std::thread::scope(|s| {
            s.spawn(|| Aggregator::<CanonicalCode, Vec<u32>>::take_map(durable))
                .join()
                .expect("a settled shard reads off-thread")
        });
        assert_eq!(got, want);
    }

    #[test]
    fn unsettled_shard_refuses_to_be_read_off_its_core() {
        let g = fractal_graph::gen::mico_like(40, 1, 5);
        let spec = vertex_sets();
        let (mut staged, mut durable) = (spec.new_shard(), spec.new_shard());
        run_unit(&g, 0, &mut *staged);
        staged.drain_into(&mut *durable);
        assert!(!durable.is_empty());
        let read = std::thread::scope(|s| {
            s.spawn(|| Aggregator::<CanonicalCode, Vec<u32>>::take_map(durable))
                .join()
        });
        let panic = read.expect_err("class-keyed entries resolved on a foreign thread");
        let message = panic.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("did not intern it"), "{message}");
    }

    #[test]
    fn a_refused_class_stages_nothing_and_its_answer_survives_an_abort() {
        use fractal_pattern::{canon::canonical_code, Pattern};
        let g = fractal_graph::gen::mico_like(40, 1, 5);
        let triangle = canonical_code(&Pattern::clique(3));
        let plain = Aggregator::pattern_count("motifs", false, false);
        use fractal_runtime::sync::{AtomicU64, Ordering};
        let asked = Arc::new(AtomicU64::new(0));
        let counter = asked.clone();
        let ruled = Aggregator::pattern_count("motifs", false, false).with_candidates(
            "earlier",
            move |code, _, _| {
                // ordering: Relaxed — a test tally read on this thread.
                counter.fetch_add(1, Ordering::Relaxed);
                *code != triangle
            },
        );
        let (source, keep) = ruled.candidates().expect("a candidate rule");
        assert_eq!(source, "earlier");
        let earlier = Arc::new(AggResult::new(plain.new_shard()));
        let mut rule = ClassRule::new(keep.clone(), earlier);
        let (mut want, mut staged, mut durable) =
            (plain.new_shard(), ruled.new_shard(), ruled.new_shard());
        run_unit(&g, 0, &mut *want);
        // An aborted attempt asks once per class and keeps the answers; its
        // refused groups go with it.
        run_unit_named(&g, 0, &mut *staged, Some(&mut rule), u64::MAX);
        let (classes, groups) = rule.refused;
        assert_eq!(classes, 1);
        assert!(groups > 1);
        // ordering: Relaxed — written and read on this thread.
        let asked_once = asked.load(Ordering::Relaxed);
        assert_eq!(asked_once, 2, "a wedge and a triangle");
        staged.reset();
        rule.abort();
        assert_eq!(rule.refused, (1, 0));
        run_unit_named(&g, 0, &mut *staged, Some(&mut rule), u64::MAX);
        // ordering: Relaxed — written and read on this thread.
        assert_eq!(asked.load(Ordering::Relaxed), asked_once);
        // The engine's commit: the rule's count, then the staged entries.
        durable.add_rejected(rule.take_refused());
        staged.drain_into(&mut *durable);
        assert_eq!(durable.rejected(), (1, groups));
        let mut want = Aggregator::<CanonicalCode, u64>::take_map(want);
        let triangles = want.remove(&canonical_code(&Pattern::clique(3)));
        assert!(triangles.is_some_and(|n| n > 0));
        assert_eq!(Aggregator::<CanonicalCode, u64>::take_map(durable), want);
    }

    #[test]
    #[should_panic(expected = "aggregation type mismatch")]
    fn downcast_mismatch_panics() {
        let spec = count_agg();
        let result = AggResult::new(spec.new_shard());
        let _ = result.map::<u64, u64>();
    }
}
