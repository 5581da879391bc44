//! Micro A/B of the adaptive intersection kernel against the plain sorted
//! merge on skewed inputs. End-to-end kernel cost is tracked by the
//! `graph.kernel_*_ns_per_elem` probes of `fractal_bench`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fractal_graph::kernels::{intersect, merge_into, KernelCounters};

fn bench_intersect_micro(c: &mut Criterion) {
    // Skewed adjacency: a hub list vs many short lists — the shape the
    // galloping path targets. Same merge-only loop the old KClist used.
    let hub: Vec<u32> = (0..20_000).map(|i| i * 3).collect();
    let smalls: Vec<Vec<u32>> = (0..64u32)
        .map(|s| {
            (0..200)
                .map(|i| (i * 97 + s * 13) % 60_000)
                .collect::<Vec<u32>>()
        })
        .map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();

    let mut g = c.benchmark_group("intersect_micro");
    g.sample_size(20);
    g.bench_function("skewed/merge_only", |b| {
        let mut out = Vec::new();
        let mut cnt = KernelCounters::default();
        b.iter(|| {
            let mut total = 0usize;
            for s in &smalls {
                merge_into(s, &hub, &mut out, &mut cnt);
                total += out.len();
            }
            black_box(total)
        })
    });
    g.bench_function("skewed/adaptive", |b| {
        let mut out = Vec::new();
        let mut cnt = KernelCounters::default();
        b.iter(|| {
            let mut total = 0usize;
            for s in &smalls {
                intersect(s, &hub, &mut out, &mut cnt);
                total += out.len();
            }
            black_box(total)
        })
    });
    g.finish();
    let merge = c.summaries[c.summaries.len() - 2].median().as_secs_f64();
    let adaptive = c.summaries[c.summaries.len() - 1].median().as_secs_f64();
    println!(
        "kernel speedup [intersect_micro/skewed]: {:.2}x (merge {merge:.4}s / adaptive {adaptive:.4}s)",
        merge / adaptive
    );
}

criterion_group!(benches, bench_intersect_micro);
criterion_main!(benches);
