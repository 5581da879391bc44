//! Execution statistics: per-core busy time, steal counters, extension
//! cost and state-size accounting.
//!
//! These counters back the paper's drill-down experiments: Fig. 8/16 (CPU
//! utilization and per-task runtimes), Table 2 (memory per worker), §4.3
//! (extension cost) and §6 (work-stealing overhead).

use crate::fault::FaultStats;
use crate::json::Emitter;
use crate::level::GlobalCoreId;
use crate::trace::{Histogram, TraceDump};
use crate::wire::{self, Reader, Writer};
use std::time::Duration;

/// How a counter combines when per-worker reports are federated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    Sum,
    Max,
}

/// One row of a counter struct's field table. Each of [`CoreStats`],
/// [`PlannerStats`] and [`FaultStats`] declares its counters once, as a
/// `FIELDS` table in struct order; the report blob, the metrics JSON and
/// the federation merge are all derived from it (adding a counter = one
/// field + one table row).
pub struct Field<S> {
    pub name: &'static str,
    pub merge: Merge,
    pub get: fn(&S) -> u64,
    pub get_mut: fn(&mut S) -> &mut u64,
}

/// One [`Field`] row, named after its field.
macro_rules! field {
    ($f:ident, $merge:ident) => {
        Field {
            name: stringify!($f),
            merge: Merge::$merge,
            get: |s| s.$f,
            get_mut: |s| &mut s.$f,
        }
    };
}
pub(crate) use field;

/// Folds `from` into `into`, row by row.
pub fn absorb_fields<S>(fields: &[Field<S>], into: &mut S, from: &S) {
    for f in fields {
        let (slot, v) = ((f.get_mut)(into), (f.get)(from));
        *slot = match f.merge {
            Merge::Sum => *slot + v,
            Merge::Max => (*slot).max(v),
        };
    }
}

/// Writes every counter as a `u64`, in table order.
pub fn put_fields<S>(fields: &[Field<S>], s: &S, w: &mut Writer) {
    for f in fields {
        w.u64((f.get)(s));
    }
}

/// Reads what [`put_fields`] wrote.
pub fn get_fields<S: Default>(fields: &[Field<S>], r: &mut Reader<'_>) -> Result<S, wire::Error> {
    let mut s = S::default();
    for f in fields {
        *(f.get_mut)(&mut s) = r.u64()?;
    }
    Ok(s)
}

/// Emits every counter as a `"name": value` member of the open object.
pub fn emit_fields<S>(fields: &[Field<S>], s: &S, e: &mut Emitter) {
    for f in fields {
        e.key(f.name).u64((f.get)(s));
    }
}

/// Counters recorded by one core during one job.
#[derive(Debug, Default, Clone)]
pub struct CoreStats {
    /// Nanoseconds spent processing work units.
    pub busy_ns: u64,
    /// Work units processed (root + stolen dispatches).
    pub units: u64,
    /// Successful intra-worker steals.
    pub internal_steals: u64,
    /// Successful inter-worker steals.
    pub external_steals: u64,
    /// Units pulled from a cross-process steal source (`fractal-net`).
    /// Always zero when no network substrate is attached — the perf gate
    /// asserts this on single-process legs.
    pub net_units: u64,
    /// Full failed steal rounds (every victim came up empty).
    pub failed_steal_rounds: u64,
    /// Bytes of steal replies received from other workers.
    pub bytes_received: u64,
    /// Extension-cost counter: candidate tests performed (§4.3).
    pub ec: u64,
    /// Peak tracked intermediate-state bytes (enumerator levels, subgraph,
    /// aggregation shards).
    pub peak_state_bytes: u64,
    /// Nanoseconds spent in work-stealing code paths (scans, requests,
    /// rebuilds of stolen prefixes).
    pub steal_ns: u64,
    /// Sorted-merge kernel intersections performed.
    pub kernel_merge: u64,
    /// Galloping kernel intersections performed.
    pub kernel_gallop: u64,
    /// Bitset kernel intersections performed.
    pub kernel_bitset: u64,
    /// Elements scanned across all kernel invocations.
    pub kernel_scanned: u64,
    /// Peak candidate-set arena bytes observed on this core.
    pub arena_peak_bytes: u64,
    /// Merged busy intervals `(start_ns, end_ns)` since job start.
    pub segments: Vec<(u64, u64)>,
}

impl CoreStats {
    /// The counters, in struct (= blob) order.
    pub const FIELDS: &'static [Field<CoreStats>] = &[
        field!(busy_ns, Sum),
        field!(units, Sum),
        field!(internal_steals, Sum),
        field!(external_steals, Sum),
        field!(net_units, Sum),
        field!(failed_steal_rounds, Sum),
        field!(bytes_received, Sum),
        field!(ec, Sum),
        field!(peak_state_bytes, Max),
        field!(steal_ns, Sum),
        field!(kernel_merge, Sum),
        field!(kernel_gallop, Sum),
        field!(kernel_bitset, Sum),
        field!(kernel_scanned, Sum),
        field!(arena_peak_bytes, Max),
    ];

    /// Folds another round's counters for the same core into `self`
    /// (busy segments are local to a run and stay untouched).
    pub fn absorb(&mut self, other: &CoreStats) {
        absorb_fields(Self::FIELDS, self, other);
    }

    /// Records a processed unit busy interval, merging near-contiguous
    /// segments (gap below 200µs) to bound memory.
    pub fn record_segment(&mut self, start_ns: u64, end_ns: u64) {
        self.busy_ns += end_ns.saturating_sub(start_ns);
        self.units += 1;
        if let Some(last) = self.segments.last_mut() {
            if start_ns.saturating_sub(last.1) < 200_000 {
                last.1 = end_ns;
                return;
            }
        }
        if self.segments.len() < 1_000_000 {
            self.segments.push((start_ns, end_ns));
        }
    }
}

/// Planner activity for jobs running a decomposed counting plan (all zero
/// on enumeration jobs — the perf gate pins them on `--plan enumerate`
/// legs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlannerStats {
    /// Direct rooted sub-plans compiled to a matching order.
    pub plans_compiled: u64,
    /// Rooted sub-patterns in the plan DAG.
    pub subpatterns_counted: u64,
    /// Inclusion–exclusion correction terms applied.
    pub ie_terms: u64,
}

impl PlannerStats {
    /// The counters, in struct (= blob) order. The plan is identical on
    /// every worker, so a merge takes the max rather than summing
    /// duplicates.
    pub const FIELDS: &'static [Field<PlannerStats>] = &[
        field!(plans_compiled, Max),
        field!(subpatterns_counted, Max),
        field!(ie_terms, Max),
    ];

    /// Folds another worker's report into `self`.
    pub fn absorb(&mut self, other: &PlannerStats) {
        absorb_fields(Self::FIELDS, self, other);
    }
}

/// The result of executing one job on the simulated cluster.
#[derive(Debug, Default, Clone)]
pub struct JobReport {
    /// Wall-clock duration of the job.
    pub elapsed: Duration,
    /// Per-core statistics.
    pub cores: Vec<(GlobalCoreId, CoreStats)>,
    /// Total bytes served by steal servers (external-steal traffic).
    pub bytes_served: u64,
    /// Steal requests received across all steal servers.
    pub steal_requests: u64,
    /// Steal requests answered with a unit across all steal servers.
    pub steal_hits: u64,
    /// Fault-injection and recovery counters (all zero on a fault-free
    /// run; the perf gate asserts this).
    pub faults: FaultStats,
    /// Decomposed-plan counters (all zero on enumeration jobs).
    pub planner: PlannerStats,
    /// The flight-recorder dump, present when the job ran with
    /// [`TraceConfig::enabled`](crate::trace::TraceConfig) tracing.
    pub trace: Option<TraceDump>,
    /// Workers the job was assigned, reporting or not (a killed worker's
    /// cores never report); 0 when only the reporting cores are known, as
    /// in a report decoded from a blob.
    pub workers: usize,
}

impl JobReport {
    /// Total busy time across cores.
    pub fn total_busy(&self) -> Duration {
        Duration::from_nanos(self.total(|s| s.busy_ns))
    }

    /// Mean CPU utilization: busy time / (cores × wall time), in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let wall = self.elapsed.as_nanos() as f64 * self.cores.len() as f64;
        if wall == 0.0 {
            return 0.0;
        }
        (self.total_busy().as_nanos() as f64 / wall).min(1.0)
    }

    /// Utilization per time bucket: fraction of cores busy during each of
    /// `buckets` equal slices of the job (the Fig. 8 curve).
    pub fn utilization_timeline(&self, buckets: usize) -> Vec<f64> {
        let total = self.elapsed.as_nanos() as u64;
        if total == 0 || buckets == 0 {
            return vec![0.0; buckets];
        }
        let width = (total / buckets as u64).max(1);
        let mut out = vec![0.0; buckets];
        for (_, s) in &self.cores {
            for &(a, b) in &s.segments {
                let first = (a / width) as usize;
                let last = ((b.saturating_sub(1)) / width) as usize;
                for (bkt, slot) in out
                    .iter_mut()
                    .enumerate()
                    .take(last.min(buckets - 1) + 1)
                    .skip(first.min(buckets - 1))
                {
                    let lo = bkt as u64 * width;
                    let hi = lo + width;
                    let overlap = b.min(hi).saturating_sub(a.max(lo));
                    *slot += overlap as f64 / width as f64;
                }
            }
        }
        for v in &mut out {
            *v /= self.cores.len() as f64;
        }
        out
    }

    /// One counter summed over the cores.
    fn total(&self, get: fn(&CoreStats) -> u64) -> u64 {
        self.cores.iter().map(|(_, s)| get(s)).sum()
    }

    /// Total successful steals `(internal, external)`.
    pub fn steals(&self) -> (u64, u64) {
        (
            self.total(|s| s.internal_steals),
            self.total(|s| s.external_steals),
        )
    }

    /// Total units pulled from a cross-process steal source (zero unless a
    /// network substrate was attached).
    pub fn net_units(&self) -> u64 {
        self.total(|s| s.net_units)
    }

    /// Total extension cost (candidate tests, §4.3).
    pub fn total_ec(&self) -> u64 {
        self.total(|s| s.ec)
    }

    /// Kernel-path totals across cores:
    /// `(merge_calls, gallop_calls, bitset_calls, elements_scanned)`.
    pub fn kernel_totals(&self) -> (u64, u64, u64, u64) {
        (
            self.total(|s| s.kernel_merge),
            self.total(|s| s.kernel_gallop),
            self.total(|s| s.kernel_bitset),
            self.total(|s| s.kernel_scanned),
        )
    }

    /// Largest candidate-set arena observed on any core, in bytes.
    pub fn arena_peak_bytes(&self) -> u64 {
        self.cores
            .iter()
            .map(|(_, s)| s.arena_peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Per-worker intermediate state: sum of its cores' peaks, in bytes
    /// (the Table 2 metric), for every worker the job was assigned.
    pub fn worker_state_bytes(&self) -> Vec<u64> {
        let num_workers = self
            .cores
            .iter()
            .map(|(id, _)| id.worker + 1)
            .fold(self.workers, usize::max);
        let mut out = vec![0u64; num_workers];
        for (id, s) in &self.cores {
            out[id.worker] += s.peak_state_bytes;
        }
        out
    }

    /// Fraction of busy time spent on work-stealing code paths (§6).
    pub fn steal_overhead(&self) -> f64 {
        let (busy, steal) = (self.total(|s| s.busy_ns), self.total(|s| s.steal_ns));
        if busy + steal == 0 {
            return 0.0;
        }
        steal as f64 / (busy + steal) as f64
    }

    /// Busy time of each core in seconds, ordered by core id — the
    /// per-task runtimes plotted in Fig. 16.
    pub fn task_times(&self) -> Vec<f64> {
        self.cores
            .iter()
            .map(|(_, s)| s.busy_ns as f64 / 1e9)
            .collect()
    }

    /// Serializes the report as one machine-readable JSON document — the
    /// metrics artifact consumed by `fractal trace`, the bench harness and
    /// the CI regression gate. `timeline_buckets` controls the resolution
    /// of the embedded per-job utilization timeline (Fig. 8 curve).
    pub fn to_json(&self, timeline_buckets: usize) -> String {
        let mut e = Emitter::pretty();
        self.emit_json(&mut e, timeline_buckets);
        e.finish()
    }

    /// Writes the [`to_json`](Self::to_json) document as the next value of
    /// `e`, so callers can embed reports in a larger artifact.
    pub fn emit_json(&self, e: &mut Emitter, timeline_buckets: usize) {
        let (int_steals, ext_steals) = self.steals();
        let (km, kg, kb, ks) = self.kernel_totals();
        e.begin_obj();
        e.key("schema").str("fractal-metrics/1");
        e.key("elapsed_ms").f64(self.elapsed.as_secs_f64() * 1e3, 3);
        e.key("cores").u64(self.cores.len() as u64);
        e.key("workers").u64(self.worker_state_bytes().len() as u64);
        e.key("utilization").f64(self.utilization(), 6);
        e.key("imbalance").f64(self.imbalance(), 6);
        e.key("steal_overhead").f64(self.steal_overhead(), 6);
        e.key("total_units").u64(self.total(|s| s.units));
        e.key("total_ec").u64(self.total_ec());
        e.key("kernel_merge").u64(km);
        e.key("kernel_gallop").u64(kg);
        e.key("kernel_bitset").u64(kb);
        e.key("kernel_scanned").u64(ks);
        e.key("arena_peak_bytes").u64(self.arena_peak_bytes());
        e.key("internal_steals").u64(int_steals);
        e.key("external_steals").u64(ext_steals);
        e.key("net_units").u64(self.net_units());
        e.key("failed_steal_rounds")
            .u64(self.total(|s| s.failed_steal_rounds));
        e.key("steal_requests").u64(self.steal_requests);
        e.key("steal_hits").u64(self.steal_hits);
        e.key("bytes_served").u64(self.bytes_served);
        emit_fields(FaultStats::FIELDS, &self.faults, e);
        emit_fields(PlannerStats::FIELDS, &self.planner, e);
        e.key("worker_state_bytes").inline().begin_arr();
        for b in self.worker_state_bytes() {
            e.u64(b);
        }
        e.end_arr();
        e.key("utilization_timeline").inline().begin_arr();
        for u in self.utilization_timeline(timeline_buckets) {
            e.f64(u, 6);
        }
        e.end_arr();
        e.key("per_core").begin_arr();
        for (id, s) in &self.cores {
            e.inline().begin_obj();
            e.key("worker").u64(id.worker as u64);
            e.key("core").u64(id.core as u64);
            emit_fields(CoreStats::FIELDS, s, e);
            e.end_obj();
        }
        e.end_arr();
        e.key("trace");
        match &self.trace {
            Some(dump) => {
                let (steal_lat, service, depth) = dump.merged_histograms();
                e.begin_obj();
                e.key("events").u64(dump.num_events() as u64);
                e.key("dropped").u64(dump.total_dropped());
                for (name, h) in [
                    ("steal_latency_ns", &steal_lat),
                    ("service_ns", &service),
                    ("ext_depth", &depth),
                ] {
                    e.key(name);
                    emit_histogram(h, e);
                }
                e.end_obj();
            }
            None => {
                e.null();
            }
        }
        e.end_obj();
    }

    /// Coefficient of variation of per-core busy times (0 = perfectly
    /// balanced).
    pub fn imbalance(&self) -> f64 {
        let times = self.task_times();
        let n = times.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = times.iter().sum::<f64>() / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
        var.sqrt() / mean
    }
}

/// Emits a histogram summary as one inline JSON object.
fn emit_histogram(h: &Histogram, e: &mut Emitter) {
    e.inline().begin_obj();
    e.key("count").u64(h.count());
    e.key("sum").u64(h.sum());
    e.key("mean").f64(h.mean(), 3);
    e.key("max").u64(h.max());
    e.key("p50_bound").u64(h.quantile_bound(0.5));
    e.key("p99_bound").u64(h.quantile_bound(0.99));
    e.key("buckets").begin_arr();
    for (bound, n) in h.nonzero_buckets() {
        e.begin_arr().u64(bound).u64(n).end_arr();
    }
    e.end_arr().end_obj();
}

/// Every row reads and writes a field of its own, there is one row per
/// `u64` field, and the blob form decodes to what was encoded.
#[cfg(test)]
pub(crate) fn check_table<S: Default>(fields: &[Field<S>], u64_fields: usize) {
    assert_eq!(fields.len(), u64_fields, "one table row per u64 field");
    let mut s = S::default();
    for (i, f) in fields.iter().enumerate() {
        *(f.get_mut)(&mut s) = i as u64 + 1;
    }
    let mut w = Writer::new();
    put_fields(fields, &s, &mut w);
    let bytes = w.finish();
    assert_eq!(bytes.len(), 8 * fields.len());
    let mut r = Reader::new(&bytes);
    let back: S = get_fields(fields, &mut r).expect("decode");
    r.finish().expect("no trailing bytes");
    for (i, f) in fields.iter().enumerate() {
        assert_eq!((f.get)(&s), i as u64 + 1, "row {} aliases another", f.name);
        assert_eq!((f.get)(&back), i as u64 + 1, "row {} round trip", f.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_tables_cover_every_counter() {
        use std::mem::size_of;
        check_table(
            CoreStats::FIELDS,
            (size_of::<CoreStats>() - size_of::<Vec<(u64, u64)>>()) / 8,
        );
        check_table(PlannerStats::FIELDS, size_of::<PlannerStats>() / 8);
    }

    /// How the perf baseline fails to account for the counters `names`.
    /// Each counter must be pinned, in `fault_free_counters` or
    /// `tolerances` under its own name or as `total_<name>`, or else be
    /// `unpinned` with a reason. Each `unpinned` entry must name a counter
    /// that is not pinned and give a reason of 10 characters or more.
    fn pin_problems(names: &[&str], baseline: &str) -> Vec<String> {
        let doc = crate::json::parse(baseline).expect("baseline JSON");
        let mut pinned: Vec<&str> = doc
            .get("fault_free_counters")
            .and_then(|v| v.as_arr())
            .unwrap_or_default()
            .iter()
            .filter_map(|v| v.as_str())
            .collect();
        if let Some(tolerances) = doc.get("tolerances").and_then(|v| v.as_obj()) {
            pinned.extend(tolerances.keys().map(String::as_str));
        }
        let is_pinned = |name: &str| {
            pinned
                .iter()
                .any(|p| *p == name || p.strip_prefix("total_") == Some(name))
        };
        let unpinned = doc.get("unpinned").and_then(|v| v.as_obj());
        let mut problems = Vec::new();
        for name in names {
            if !is_pinned(name) && !unpinned.is_some_and(|u| u.contains_key(*name)) {
                problems.push(format!("{name}: neither pinned nor unpinned"));
            }
        }
        for (name, reason) in unpinned.into_iter().flatten() {
            if !names.contains(&name.as_str()) {
                problems.push(format!("{name}: unpinned but no such counter"));
            }
            if is_pinned(name) {
                problems.push(format!("{name}: unpinned but also pinned"));
            }
            if reason.as_str().unwrap_or("").trim().len() < 10 {
                problems.push(format!("{name}: unpinned without a reason"));
            }
        }
        problems
    }

    #[test]
    fn every_counter_is_pinned_or_unpinned_with_a_reason() {
        let names: Vec<&str> = CoreStats::FIELDS
            .iter()
            .map(|f| f.name)
            .chain(PlannerStats::FIELDS.iter().map(|f| f.name))
            .chain(FaultStats::FIELDS.iter().map(|f| f.name))
            .collect();
        let baseline = include_str!("../../../ci/perf-baseline.json");
        let problems = pin_problems(&names, baseline);
        assert!(problems.is_empty(), "ci/perf-baseline.json: {problems:#?}");
    }

    #[test]
    fn pin_check_cases() {
        let names = ["ec", "busy_ns", "faults_injected"];
        let baseline = |unpinned: &str| {
            format!(
                r#"{{"tolerances": {{"total_ec": 0.0}}, "fault_free_counters": ["faults_injected"],
                    "unpinned": {{{unpinned}}}}}"#
            )
        };
        // (case, `unpinned` members, problems)
        let cases: &[(&str, &str, &[&str])] = &[
            ("clean", r#""busy_ns": "wall-clock time""#, &[]),
            ("missing", "", &["busy_ns: neither pinned nor unpinned"]),
            (
                "reasonless",
                r#""busy_ns": "timing""#,
                &["busy_ns: unpinned without a reason"],
            ),
            (
                "stale",
                r#""busy_ns": "wall-clock time", "ghost_ns": "deleted long ago""#,
                &["ghost_ns: unpinned but no such counter"],
            ),
            (
                "also pinned",
                r#""busy_ns": "wall-clock time", "ec": "pinned as total_ec""#,
                &["ec: unpinned but also pinned"],
            ),
        ];
        for (case, unpinned, want) in cases {
            assert_eq!(pin_problems(&names, &baseline(unpinned)), *want, "{case}");
        }
    }

    #[test]
    fn core_stats_absorb_sums_counters_and_maxes_peaks() {
        let mut a = CoreStats {
            ec: 5,
            peak_state_bytes: 100,
            arena_peak_bytes: 7,
            ..Default::default()
        };
        a.absorb(&CoreStats {
            ec: 6,
            peak_state_bytes: 40,
            arena_peak_bytes: 9,
            ..Default::default()
        });
        assert_eq!((a.ec, a.peak_state_bytes, a.arena_peak_bytes), (11, 100, 9));
    }

    #[test]
    fn per_core_objects_carry_every_counter() {
        let r = report(
            vec![CoreStats {
                kernel_gallop: 4,
                ..Default::default()
            }],
            10,
        );
        let v = crate::json::parse(&r.to_json(1)).expect("valid JSON");
        let core = &v.get("per_core").unwrap().as_arr().unwrap()[0];
        assert_eq!(core.as_obj().unwrap().len(), 2 + CoreStats::FIELDS.len());
        assert_eq!(core.get("kernel_gallop").unwrap().as_u64(), Some(4));
    }

    fn report(cores: Vec<CoreStats>, elapsed_ns: u64) -> JobReport {
        JobReport {
            elapsed: Duration::from_nanos(elapsed_ns),
            cores: cores
                .into_iter()
                .enumerate()
                .map(|(i, s)| (GlobalCoreId { worker: 0, core: i }, s))
                .collect(),
            bytes_served: 0,
            steal_requests: 0,
            steal_hits: 0,
            faults: FaultStats::default(),
            planner: PlannerStats::default(),
            trace: None,
            workers: 1,
        }
    }

    #[test]
    fn segments_merge_when_contiguous() {
        let mut s = CoreStats::default();
        s.record_segment(0, 1000);
        s.record_segment(1500, 3000); // gap 500ns < 200µs -> merged
        assert_eq!(s.segments.len(), 1);
        assert_eq!(s.segments[0], (0, 3000));
        s.record_segment(10_000_000, 11_000_000); // gap ~10ms -> new segment
        assert_eq!(s.segments.len(), 2);
        assert_eq!(s.units, 3);
        assert_eq!(s.busy_ns, 1000 + 1500 + 1_000_000);
    }

    #[test]
    fn utilization_full_and_half() {
        let mut a = CoreStats::default();
        a.record_segment(0, 1000);
        let mut b = CoreStats::default();
        b.record_segment(0, 500);
        let r = report(vec![a, b], 1000);
        assert!((r.utilization() - 0.75).abs() < 1e-9);
        let tl = r.utilization_timeline(2);
        assert!((tl[0] - 1.0).abs() < 1e-9);
        assert!((tl[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn imbalance_zero_when_equal() {
        let mut a = CoreStats::default();
        a.record_segment(0, 1000);
        let mut b = CoreStats::default();
        b.record_segment(0, 1000);
        let r = report(vec![a, b], 1000);
        assert!(r.imbalance() < 1e-9);
    }

    #[test]
    fn worker_state_sums_cores() {
        let a = CoreStats {
            peak_state_bytes: 100,
            ..Default::default()
        };
        let b = CoreStats {
            peak_state_bytes: 50,
            ..Default::default()
        };
        let r = JobReport {
            elapsed: Duration::from_nanos(1),
            cores: vec![
                (GlobalCoreId { worker: 0, core: 0 }, a),
                (GlobalCoreId { worker: 1, core: 0 }, b),
            ],
            bytes_served: 0,
            steal_requests: 0,
            steal_hits: 0,
            faults: FaultStats::default(),
            planner: PlannerStats::default(),
            trace: None,
            workers: 3,
        };
        // The third worker reported nothing: it still counts, with 0 bytes.
        assert_eq!(r.worker_state_bytes(), vec![100, 50, 0]);
    }

    #[test]
    fn to_json_carries_steal_counts_and_timeline() {
        let mut a = CoreStats::default();
        a.record_segment(0, 1000);
        a.internal_steals = 3;
        a.external_steals = 2;
        let mut r = report(vec![a], 1000);
        r.steal_requests = 5;
        r.steal_hits = 2;
        r.bytes_served = 44;
        let json = r.to_json(4);
        assert!(json.contains("\"schema\": \"fractal-metrics/1\""));
        assert!(json.contains("\"internal_steals\": 3"));
        assert!(json.contains("\"external_steals\": 2"));
        assert!(json.contains("\"steal_requests\": 5"));
        assert!(json.contains("\"bytes_served\": 44"));
        assert!(json.contains("\"trace\": null"));
        // Every fault and planner counter is present, and zero on a
        // fault-free enumeration job.
        let doc = crate::json::parse(&json).expect("valid JSON");
        let fault_names = FaultStats::FIELDS.iter().map(|f| f.name);
        for name in fault_names.chain(PlannerStats::FIELDS.iter().map(|f| f.name)) {
            assert_eq!(doc.get(name).and_then(|v| v.as_u64()), Some(0), "{name}");
        }
        // A 4-bucket timeline over a fully-busy single core is all ones.
        assert!(json.contains("\"utilization_timeline\": [1.000000, 1.000000, 1.000000, 1.000000]"));
    }

    #[test]
    fn to_json_embeds_trace_summaries() {
        use crate::trace::{CoreTrace, Histogram};
        let mut service = Histogram::new();
        service.record(100);
        service.record(200);
        let mut r = report(vec![CoreStats::default()], 1000);
        r.trace = Some(TraceDump {
            cores: vec![CoreTrace {
                id: GlobalCoreId { worker: 0, core: 0 },
                events: Vec::new(),
                dropped: 7,
                total_events: 7,
                steal_latency_ns: Histogram::new(),
                service_ns: service,
                ext_depth: Histogram::new(),
            }],
        });
        let json = r.to_json(2);
        assert!(json.contains("\"dropped\": 7"));
        assert!(json.contains("\"service_ns\": {\"count\": 2"));
    }

    #[test]
    fn kernel_totals_sum_and_arena_maxes() {
        let a = CoreStats {
            kernel_merge: 3,
            kernel_gallop: 1,
            kernel_bitset: 2,
            kernel_scanned: 100,
            arena_peak_bytes: 4096,
            ..Default::default()
        };
        let b = CoreStats {
            kernel_merge: 1,
            kernel_scanned: 50,
            arena_peak_bytes: 8192,
            ..Default::default()
        };
        let r = report(vec![a, b], 1000);
        assert_eq!(r.kernel_totals(), (4, 1, 2, 150));
        assert_eq!(r.arena_peak_bytes(), 8192);
        let json = r.to_json(1);
        assert!(json.contains("\"kernel_merge\": 4"));
        assert!(json.contains("\"kernel_gallop\": 1"));
        assert!(json.contains("\"kernel_bitset\": 2"));
        assert!(json.contains("\"kernel_scanned\": 150"));
        assert!(json.contains("\"arena_peak_bytes\": 8192"));
    }

    #[test]
    fn planner_stats_serialize_and_merge() {
        let mut r = report(vec![CoreStats::default()], 1000);
        r.planner = PlannerStats {
            plans_compiled: 9,
            subpatterns_counted: 17,
            ie_terms: 12,
        };
        let doc = crate::json::parse(&r.to_json(1)).expect("valid JSON");
        assert_eq!(doc.get("subpatterns_counted").unwrap().as_u64(), Some(17));
        // Worker merge keeps the shared plan's counters instead of
        // double-counting them.
        let mut a = r.planner;
        a.absorb(&r.planner);
        assert_eq!(a, r.planner);
    }

    #[test]
    fn steal_overhead_ratio() {
        let a = CoreStats {
            busy_ns: 99,
            steal_ns: 1,
            ..Default::default()
        };
        let r = report(vec![a], 100);
        assert!((r.steal_overhead() - 0.01).abs() < 1e-9);
    }
}
