//! The aggregation primitive (A): type-erased named aggregations.
//!
//! An aggregation is defined by the paper's four functions (Fig. 4, W2):
//! key extraction, value extraction, value reduction and an optional final
//! filter over the reduced mapping. Each core accumulates into a private
//! *shard*; shards are merged at the step barrier and the merged result is
//! stored under the aggregation's name for downstream aggregation filters
//! (W4) and output operators (O2).

use crate::view::{class_code, PatternClass, SubgraphView};
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
    /// Merges another shard of the same aggregation into this one.
    fn merge_from(&mut self, other: Box<dyn AggShard>);
    /// Moves every entry of this shard into `target` (same aggregation),
    /// leaving this shard empty but reusable — the per-unit commit path,
    /// which must not reallocate either shard.
    fn drain_into(&mut self, target: &mut dyn AggShard);
    /// Discards all entries, restoring the freshly-created state (the
    /// per-unit abort path).
    fn reset(&mut self);
    /// Applies the final `aggFilter`, dropping entries that fail it.
    fn finalize(&mut self);
    /// Number of reduced entries.
    fn len(&self) -> usize;
    /// Total [`accumulate`](Self::accumulate) calls folded into this shard,
    /// including through merges (monotonic; feeds the flight recorder's
    /// aggregation-flush accounting).
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

type ExtractFn<T> = Arc<dyn Fn(&SubgraphView<'_>) -> T + Send + Sync>;
type ReduceFn<V> = Arc<dyn Fn(&mut V, V) + Send + Sync>;
type FilterFn<K, V> = Arc<dyn Fn(&K, &V) -> bool + Send + Sync>;

/// How a shard keys the subgraphs it folds.
#[derive(Clone)]
enum KeyFn<K> {
    /// The paper's key function, evaluated per subgraph.
    Direct(ExtractFn<K>),
    /// The key is the subgraph's canonical pattern `ρ(S)`: staged under the
    /// core's interned [`PatternClass`] (Arabesque's quick level, no
    /// allocation per subgraph) and resolved to `K` only when the unit's
    /// staged shard drains into a durable one.
    Pattern {
        use_vlabels: bool,
        use_elabels: bool,
        resolve: fn(PatternClass) -> K,
    },
}

/// A typed aggregation over keys `K` and values `V` — the generic engine
/// behind [`crate::Fractoid::aggregate`].
pub struct Aggregator<K, V> {
    name: String,
    key_fn: KeyFn<K>,
    value_fn: ExtractFn<V>,
    reduce_fn: ReduceFn<V>,
    agg_filter: Option<FilterFn<K, V>>,
}

impl<V> Aggregator<CanonicalCode, V>
where
    V: Send + Sync + 'static,
{
    /// An aggregation keyed by the canonical pattern of each subgraph (the
    /// paper's `ρ(S)`, Listings 1 and 3). Same result map as keying
    /// [`Aggregator::new`] by [`SubgraphView::pattern_code`], without
    /// building a `CanonicalCode` per subgraph: each unit accumulates under
    /// interned pattern classes and one code per class is made when the
    /// unit commits.
    pub fn by_pattern(
        name: impl Into<String>,
        use_vlabels: bool,
        use_elabels: bool,
        value_fn: impl Fn(&SubgraphView<'_>) -> V + Send + Sync + 'static,
        reduce_fn: impl Fn(&mut V, V) + Send + Sync + 'static,
    ) -> Self {
        Aggregator {
            name: name.into(),
            key_fn: KeyFn::Pattern {
                use_vlabels,
                use_elabels,
                resolve: class_code,
            },
            value_fn: Arc::new(value_fn),
            reduce_fn: Arc::new(reduce_fn),
            agg_filter: None,
        }
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
            key_fn: KeyFn::Direct(Arc::new(key_fn)),
            value_fn: Arc::new(value_fn),
            reduce_fn: Arc::new(reduce_fn),
            agg_filter: None,
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
    /// wire-encodable map. Panics on a type mismatch.
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
            quick: QuickLevel::default(),
            key_fn: self.key_fn.clone(),
            value_fn: self.value_fn.clone(),
            reduce_fn: self.reduce_fn.clone(),
            agg_filter: self.agg_filter.clone(),
            approx_bytes: 0,
            accumulated: 0,
        }
    }
}

/// Rough resident size of one reduced entry.
const fn entry_bytes<K, V>() -> usize {
    std::mem::size_of::<K>() + std::mem::size_of::<V>() + 32
}

/// The quick level of a [`KeyFn::Pattern`] shard: the values of the unit in
/// flight, indexed by interned class, plus the classes touched so commit
/// and abort cost what the unit used and not what the table holds.
struct QuickLevel<V> {
    /// Table every class in `touched` belongs to.
    table: u64,
    values: Vec<Option<V>>,
    touched: Vec<u32>,
}

impl<V> Default for QuickLevel<V> {
    fn default() -> Self {
        QuickLevel {
            table: 0,
            values: Vec::new(),
            touched: Vec::new(),
        }
    }
}

impl<V> QuickLevel<V> {
    #[inline]
    fn fold(&mut self, class: PatternClass, value: V, reduce: &ReduceFn<V>) {
        if self.touched.is_empty() {
            self.table = class.table;
        }
        assert_eq!(
            self.table, class.table,
            "one staged unit folded pattern classes of two cores"
        );
        let at = class.index as usize;
        if at >= self.values.len() {
            self.values.resize_with(at + 1, || None);
        }
        match &mut self.values[at] {
            Some(acc) => reduce(acc, value),
            empty => {
                *empty = Some(value);
                self.touched.push(class.index);
            }
        }
    }

    /// Hands every staged `(class, value)` to `sink`, leaving the level
    /// empty with its capacity kept.
    fn drain(&mut self, mut sink: impl FnMut(PatternClass, V)) {
        for index in self.touched.drain(..) {
            if let Some(value) = self.values[index as usize].take() {
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
    /// Entries of the unit in flight under interned pattern classes
    /// ([`KeyFn::Pattern`] only; always empty otherwise).
    quick: QuickLevel<V>,
    key_fn: KeyFn<K>,
    value_fn: ExtractFn<V>,
    reduce_fn: ReduceFn<V>,
    agg_filter: Option<FilterFn<K, V>>,
    /// Rough per-entry size estimate maintained incrementally.
    approx_bytes: usize,
    /// Total accumulate calls (monotonic, merged additively).
    accumulated: u64,
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

impl<K, V> TypedShard<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Resolves this shard's quick-level entries to their keys and folds
    /// them into `map`, leaving the quick level empty.
    fn flush_quick(&mut self, map: &mut HashMap<K, V>, approx_bytes: &mut usize) {
        if let KeyFn::Pattern { resolve, .. } = self.key_fn {
            let reduce = &self.reduce_fn;
            self.quick
                .drain(|class, v| fold_entry(map, approx_bytes, reduce, resolve(class), v));
        }
    }

    /// Moves every entry of both levels into `map`, leaving this shard
    /// empty but reusable.
    fn drain_entries(&mut self, map: &mut HashMap<K, V>, approx_bytes: &mut usize) {
        self.flush_quick(map, approx_bytes);
        for (k, v) in self.map.drain() {
            fold_entry(map, approx_bytes, &self.reduce_fn, k, v);
        }
        self.approx_bytes = 0;
    }

    /// Folds the quick level into this shard's own map, so readers of
    /// `map` see everything that was accumulated.
    fn settle(&mut self) {
        let (mut map, mut approx_bytes) = (std::mem::take(&mut self.map), self.approx_bytes);
        self.flush_quick(&mut map, &mut approx_bytes);
        (self.map, self.approx_bytes) = (map, approx_bytes);
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
}

impl<K, V> AggShard for TypedShard<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn accumulate(&mut self, view: &SubgraphView<'_>) {
        self.accumulated += 1;
        match &self.key_fn {
            KeyFn::Direct(key_fn) => {
                let key = key_fn(view);
                let value = (self.value_fn)(view);
                fold_entry(
                    &mut self.map,
                    &mut self.approx_bytes,
                    &self.reduce_fn,
                    key,
                    value,
                );
            }
            KeyFn::Pattern {
                use_vlabels,
                use_elabels,
                ..
            } => {
                let class = view.pattern_class(*use_vlabels, *use_elabels);
                self.quick
                    .fold(class, (self.value_fn)(view), &self.reduce_fn);
            }
        }
    }

    fn merge_from(&mut self, other: Box<dyn AggShard>) {
        let mut other = other
            .into_any()
            .downcast::<TypedShard<K, V>>()
            .expect("merging shards of different aggregations");
        self.accumulated += other.accumulated;
        other.drain_entries(&mut self.map, &mut self.approx_bytes);
    }

    fn drain_into(&mut self, target: &mut dyn AggShard) {
        let target = target
            .as_any_mut()
            .downcast_mut::<TypedShard<K, V>>()
            .expect("draining into a shard of a different aggregation");
        target.accumulated += self.accumulated;
        self.accumulated = 0;
        self.drain_entries(&mut target.map, &mut target.approx_bytes);
    }

    fn reset(&mut self) {
        self.map.clear();
        self.quick.drain(|_, _| {});
        self.approx_bytes = 0;
        self.accumulated = 0;
    }

    fn finalize(&mut self) {
        self.settle();
        if let Some(f) = &self.agg_filter {
            self.map.retain(|k, v| f(k, v));
        }
    }

    fn len(&self) -> usize {
        self.map.len() + self.quick.touched.len()
    }

    fn accumulated(&self) -> u64 {
        self.accumulated
    }

    fn resident_bytes(&self) -> usize {
        self.approx_bytes + self.quick.touched.len() * entry_bytes::<K, V>()
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
        sg.push_vertex_induced(&g, 0);
        shard.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        sg.push_vertex_induced(&g, 1);
        shard.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        shard.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
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
        sg.push_vertex_induced(&g, 0);
        a.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        b.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
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
        sg.push_vertex_induced(&g, 0);
        shard.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        sg.push_vertex_induced(&g, 1);
        shard.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        shard.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
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
        sg.push_vertex_induced(&g, 0);
        durable.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        staged.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        sg.push_vertex_induced(&g, 1);
        staged.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        staged.drain_into(&mut *durable);
        assert!(staged.is_empty());
        assert_eq!(staged.accumulated(), 0);
        assert_eq!(staged.resident_bytes(), 0);
        // The staging shard is immediately reusable for the next unit.
        staged.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
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
        sg.push_vertex_induced(&g, 0);
        shard.accumulate(&SubgraphView {
            graph: &g,
            subgraph: &sg,
        });
        assert!(!shard.is_empty());
        shard.reset();
        assert!(shard.is_empty());
        assert_eq!(shard.accumulated(), 0);
        assert_eq!(shard.resident_bytes(), 0);
    }

    #[test]
    fn reset_leaves_no_quick_level_residue() {
        // A pattern-keyed unit is staged, aborted and re-run: the committed
        // counts must be those of one run, on both levels of the shard.
        let g = fractal_graph::gen::mico_like(40, 1, 5);
        let spec = Aggregator::by_pattern("motifs", false, false, |_| 1u64, |a, v| *a += v);
        let run_unit = |staged: &mut dyn AggShard| {
            let mut sg = Subgraph::new(&g);
            sg.push_vertex_induced(&g, 0);
            crate::view::tests::for_each_leaf(&g, &mut sg, 3, &mut |view| staged.accumulate(view));
        };
        let mut once = spec.new_shard();
        run_unit(&mut *once);
        let leaves = once.accumulated();
        assert!(leaves > 0 && !once.is_empty());

        let (mut staged, mut durable) = (spec.new_shard(), spec.new_shard());
        run_unit(&mut *staged);
        staged.reset();
        assert!(staged.is_empty());
        assert_eq!(staged.accumulated(), 0);
        assert_eq!(staged.resident_bytes(), 0);
        run_unit(&mut *staged);
        staged.drain_into(&mut *durable);
        assert!(staged.is_empty());
        assert_eq!(durable.accumulated(), leaves);
        let committed = Aggregator::<CanonicalCode, u64>::take_map(durable);
        assert_eq!(committed.values().sum::<u64>(), leaves);
        // `take_map` settles a shard that was accumulated into directly.
        assert_eq!(committed, Aggregator::<CanonicalCode, u64>::take_map(once));
    }

    #[test]
    #[should_panic(expected = "aggregation type mismatch")]
    fn downcast_mismatch_panics() {
        let spec = count_agg();
        let result = AggResult::new(spec.new_shard());
        let _ = result.map::<u64, u64>();
    }
}
