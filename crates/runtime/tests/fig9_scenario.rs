//! The Fig. 9 work-stealing scenario, reproduced end-to-end:
//!
//! (a) an idle core steals internally from a busy sibling,
//! (b) a core on another worker steals externally when its own worker has
//!     nothing to share,
//! (c) the second core of that remote worker then steals *internally*
//!     from its sibling's previously-stolen work — stolen subtrees become
//!     local work that is shared again at shared-memory cost.

use fractal_runtime::executor::{run_job, CoreCtx, CoreTask, JobSpec};
use fractal_runtime::level::GlobalCoreId;
use fractal_runtime::{ClusterConfig, WsMode};
use std::sync::atomic::{AtomicU64, Ordering};

/// All work hangs off a single root on core w0c0: a two-level tree with
/// wide fanout and slow leaves, so every other core can only make progress
/// by stealing.
struct SingleRootTree {
    fanout: u64,
    leaf_us: u64,
    sum: AtomicU64,
}

struct Task<'a> {
    spec: &'a SingleRootTree,
    local: u64,
}

impl JobSpec for SingleRootTree {
    fn roots(&self) -> Vec<u64> {
        vec![1]
    }
    fn make_core_task<'s>(&'s self, _id: GlobalCoreId) -> Box<dyn CoreTask + 's> {
        Box::new(Task {
            spec: self,
            local: 0,
        })
    }
}

impl CoreTask for Task<'_> {
    fn process_unit(&mut self, ctx: &mut CoreCtx<'_>, prefix: &[u64], word: u64) {
        if prefix.is_empty() {
            // Root: one middle level whose items each expand again.
            let exts: Vec<u64> = (0..self.spec.fanout).collect();
            let words = [word];
            let level = ctx.push_level(&words, exts);
            while let Some(w) = level.queue.claim() {
                self.process_unit_inner(ctx, &[word], w);
            }
            ctx.pop_level();
        } else {
            self.process_unit_inner(ctx, prefix, word);
        }
    }
    fn finish(&mut self, _ctx: &mut CoreCtx<'_>) {
        self.spec.sum.fetch_add(self.local, Ordering::SeqCst);
    }
}

impl Task<'_> {
    fn process_unit_inner(&mut self, ctx: &mut CoreCtx<'_>, prefix: &[u64], word: u64) {
        if prefix.len() == 1 {
            // Middle node: expands into slow leaves (stealable depth 2).
            let exts: Vec<u64> = (0..self.spec.fanout).collect();
            let mut words = prefix.to_vec();
            words.push(word);
            let level = ctx.push_level(&words, exts);
            while let Some(w) = level.queue.claim() {
                fractal_runtime::steal::spin_latency(self.spec.leaf_us);
                self.local += w;
            }
            ctx.pop_level();
        } else {
            // Stolen leaf.
            fractal_runtime::steal::spin_latency(self.spec.leaf_us);
            self.local += word;
        }
    }
}

#[test]
fn fig9_steal_chain() {
    let spec = SingleRootTree {
        fanout: 48,
        leaf_us: 300,
        sum: AtomicU64::new(0),
    };
    let cfg = ClusterConfig::local(2, 2)
        .with_ws(WsMode::Both)
        .with_latency_us(10);
    let report = run_job(&spec, &cfg);

    // Exactness despite chained stealing.
    let per_mid: u64 = (0..48).sum();
    assert_eq!(spec.sum.load(Ordering::SeqCst), 48 * per_mid);

    let stats: std::collections::HashMap<_, _> = report
        .cores
        .iter()
        .map(|(id, s)| ((id.worker, id.core), s.clone()))
        .collect();

    // (a) internal stealing happened on worker 0 (c1 helping c0).
    let w0_internal: u64 = stats[&(0, 0)].internal_steals + stats[&(0, 1)].internal_steals;
    assert!(w0_internal > 0, "no internal steals on the victim worker");

    // (b) worker 1 obtained work externally (it owned none).
    let w1_external: u64 = stats[&(1, 0)].external_steals + stats[&(1, 1)].external_steals;
    assert!(w1_external > 0, "worker 1 never stole remotely");

    // (c) worker 1 redistributed stolen subtrees internally.
    let w1_internal: u64 = stats[&(1, 0)].internal_steals + stats[&(1, 1)].internal_steals;
    assert!(
        w1_internal > 0,
        "stolen work was not re-shared locally (case c of Fig. 9)"
    );

    // External traffic is accounted at its wire size, once per side.
    assert!(report.bytes_served > 0);
    let w1_bytes: u64 = stats[&(1, 0)].bytes_received + stats[&(1, 1)].bytes_received;
    assert!(w1_bytes > 0);
    let sum = |f: fn(&fractal_runtime::CoreStats) -> u64| stats.values().map(f).sum::<u64>();
    assert_eq!(report.steal_hits, sum(|s| s.external_steals));
    assert_eq!(report.bytes_served, sum(|s| s.bytes_received));
    assert!(report.steal_requests >= report.steal_hits);

    // Every core ended up doing real work.
    for ((w, c), s) in &stats {
        assert!(s.busy_ns > 0, "core w{w}c{c} stayed idle");
    }
}
