//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions on the workloads' own inputs, or reads the counters a
//! `JobReport`/`ClusterResult` already carries. None is gated; the README
//! lists which end-to-end metric each should move, on which workload.

use crate::inputs::{self, local_fg, Sizes};
use crate::oracle::{self, Expected};
use crate::trace::Tracer;
use crate::util::{median, process_cpu_s, quantile, sorted, timed, Metrics, Rng};
use crate::workloads::{self, LastReport, Measured, RunOpts, Workload, BIG_CLASS, WARMUPS};
use fractal_apps::planned::{motifs_planned, PlanMode};
use fractal_apps::{cliques, fsm, motifs};
use fractal_core::FractalContext;
use fractal_graph::kernels::{gallop_into, merge_into};
use fractal_graph::{gen, ExtensionKernels, Graph, KernelCounters, VertexId};
use fractal_net::frame::{decode_frame, encode_frame, read_frame, write_frame, Frame};
use fractal_net::{blob, AppSpec, Journal, Record};
use fractal_pattern::canon::canonical_code;
use fractal_pattern::{exec, CountingPlan, GraphStats};
use fractal_runtime::{ClusterConfig, JobReport, TraceConfig};
use std::hint::black_box;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

struct Out(Metrics);

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

fn failed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("probe {what}: wrong result"),
    )
}

/// Median seconds of `reps` calls.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        &(0..reps)
            .map(|_| timed(|| black_box(f())).0)
            .collect::<Vec<_>>(),
    )
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

fn busy_ns(reports: &[&JobReport]) -> f64 {
    reports
        .iter()
        .map(|r| r.total_busy().as_nanos() as f64)
        .sum()
}

/// Runs every probe. `named` is the traced run of the workload the run
/// was asked for: its jobs stand in for the short cluster or serve run the
/// probes would otherwise make.
pub fn run_all(
    s: &Sizes,
    seed: u64,
    scratch: &Path,
    expected: &Expected,
    named: (Workload, &Measured),
) -> io::Result<Metrics> {
    let mut out = Out(Vec::new());
    let mut rng = Rng::new(seed ^ 0x70_72_6f_62_65);
    graph_probes(s, &mut rng, scratch, &mut out)?;
    pattern_probes(s, &mut rng, expected, &mut out)?;
    enum_runtime_probes(s, &mut rng, expected, &mut out)?;
    let fsm_local_s = fsm_local_probes(s, &mut rng, expected, &mut out)?;
    let small_local_s = serve_local_probes(s, &mut rng, expected, &mut out)?;
    codec_probes(s, &mut rng, &mut out)?;

    let short = |w: Workload, jobs: usize| -> io::Result<Measured> {
        let dir = scratch.join(format!("probe-{}", w.name()));
        std::fs::create_dir_all(&dir)?;
        let opts = RunOpts {
            sizes: s,
            seed,
            jobs,
            setup_reps: 3,
            scratch: &dir,
            expected,
        };
        let m = workloads::run(w, &opts, &mut Tracer::off())?;
        if m.failed() > 0 {
            return Err(failed(w.name()));
        }
        Ok(m)
    };
    let own;
    let cluster = match named {
        (Workload::FsmCluster, m) => m,
        _ => {
            own = short(Workload::FsmCluster, 2)?;
            &own
        }
    };
    cluster_probes(cluster, fsm_local_s, &mut out)?;
    let own;
    let serve = match named {
        (Workload::ServeMix, m) => m,
        _ => {
            own = short(Workload::ServeMix, 32)?;
            &own
        }
    };
    serve_probes(serve, small_local_s, scratch, &mut out)?;
    Ok(out.0)
}

// ---- graph ----

/// Repeats `pass`, which runs one kernel over its pairs and returns the
/// elements scanned so far, until five million are scanned; returns ns
/// per element.
fn kernel_ns_per_elem(mut pass: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut scanned = 0;
    while scanned < 5_000_000 {
        let now = pass();
        if now == scanned {
            break;
        }
        scanned = now;
    }
    t0.elapsed().as_nanos() as f64 / scanned.max(1) as f64
}

fn graph_probes(s: &Sizes, rng: &mut Rng, scratch: &Path, out: &mut Out) -> io::Result<()> {
    let path = scratch.join("probe-load.adj");
    fractal_graph::io::save_adjacency_list(
        &inputs::relabeled(&inputs::big_base(s), rng.next()),
        &path,
    )?;
    let load_s = median_secs(5, || fractal_graph::io::load_adjacency_list(&path));
    out.put("graph.load_s", load_s, "s");
    let bytes = std::fs::metadata(&path)?.len() as usize;
    out.put("graph.load_mb_per_s", mb_per_s(bytes, load_s), "MB/s");
    // The same file as the daemon's snapshot cache loads it on a miss.
    let spec = format!("file:{}", path.display());
    let snapshot_s = median_secs(3, || fractal_net::load_snapshot(&spec));
    out.put("net.snapshot_load_s", snapshot_s, "s");

    // Seeded adjacency pairs of the motifs_plan graph: neighbours for the
    // merge, a low-degree list against a hub for the gallop, hub against
    // hub for the bitset.
    let g = inputs::relabeled(&inputs::plan_base(s), rng.next());
    let n = g.num_vertices();
    let nbrs = |v: u32| g.neighbors(VertexId(v));
    let mut hubs: Vec<u32> = (0..n as u32).collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(VertexId(v))));
    hubs.truncate(32);
    let mut merge_pairs = Vec::new();
    let mut gallop_pairs = Vec::new();
    let mut bitset_pairs = Vec::new();
    for i in 0..2000 {
        let u = rng.below(n) as u32;
        if let Some(&v) = nbrs(u).get(rng.below(nbrs(u).len().max(1))) {
            merge_pairs.push((nbrs(u), nbrs(v)));
        }
        gallop_pairs.push((nbrs(u), nbrs(hubs[i % hubs.len()])));
        bitset_pairs.push((
            nbrs(hubs[i % hubs.len()]),
            nbrs(hubs[rng.below(hubs.len())]),
        ));
    }
    let mut buf = Vec::new();
    let mut c = KernelCounters::default();
    let ns = kernel_ns_per_elem(|| {
        for &(a, b) in &merge_pairs {
            buf.clear();
            merge_into(black_box(a), black_box(b), &mut buf, &mut c);
        }
        c.elements_scanned
    });
    out.put("graph.kernel_merge_ns_per_elem", ns, "ns");
    let mut c = KernelCounters::default();
    let ns = kernel_ns_per_elem(|| {
        for &(a, b) in &gallop_pairs {
            buf.clear();
            gallop_into(black_box(a), black_box(b), &mut buf, &mut c);
        }
        c.elements_scanned
    });
    out.put("graph.kernel_gallop_ns_per_elem", ns, "ns");
    let mut k = ExtensionKernels::new();
    k.ensure_universe(n);
    let ns = kernel_ns_per_elem(|| {
        for &(a, b) in &bitset_pairs {
            buf.clear();
            k.bitset_into(black_box(a), black_box(b), &mut buf);
        }
        k.counters().elements_scanned
    });
    out.put("graph.kernel_bitset_ns_per_elem", ns, "ns");
    Ok(())
}

// ---- pattern ----

fn pattern_probes(s: &Sizes, rng: &mut Rng, expected: &Expected, out: &mut Out) -> io::Result<()> {
    let g = inputs::relabeled(&inputs::plan_base(s), rng.next());
    let compile_s = median_secs(5, || CountingPlan::plan_motifs(5, GraphStats::of(&g)));
    out.put("pattern.plan_compile_s", compile_s, "s");
    let plan = CountingPlan::plan_motifs(5, GraphStats::of(&g));
    let (exec_s, (totals, kernels, ec)) = timed(|| exec::count_all_roots(&g, &plan));
    out.put(
        "pattern.exec_ns_per_ext",
        exec_s * 1e9 / ec.max(1) as f64,
        "ns",
    );
    out.put("pattern.exec_ec", ec as f64, "count");
    out.put(
        "pattern.finalize_s",
        median_secs(5, || plan.finalize(&totals)),
        "s",
    );
    let counts = plan.finalize(&totals);
    if oracle::of_motifs(counts.iter().map(|(c, n)| (c, n))) != expected.get(s, "motifs_plan") {
        return Err(failed("pattern.exec"));
    }
    // The exact kernel work of one 5-motif census by plan.
    out.put(
        "graph.kernel_scanned",
        kernels.elements_scanned as f64,
        "count",
    );
    out.put(
        "graph.kernel_merge_calls",
        kernels.merge_calls as f64,
        "count",
    );
    out.put(
        "graph.kernel_gallop_calls",
        kernels.gallop_calls as f64,
        "count",
    );
    out.put(
        "graph.kernel_bitset_calls",
        kernels.bitset_calls as f64,
        "count",
    );

    // Canonical code of each 4-vertex pattern, as every leaf of
    // motifs_enum computes it.
    let patterns: Vec<_> = exec::motifs_decomposed(&inputs::enum_base(s), 4)
        .iter()
        .map(|(code, _)| code.to_pattern())
        .collect();
    let reps = 2000;
    let canon_s = timed(|| {
        for _ in 0..reps {
            for p in &patterns {
                black_box(canonical_code(black_box(p)));
            }
        }
    })
    .0;
    let calls = (reps * patterns.len()).max(1) as f64;
    out.put("pattern.canon_ns", canon_s * 1e9 / calls, "ns");
    Ok(())
}

// ---- enum and runtime ----

fn enum_runtime_probes(
    s: &Sizes,
    rng: &mut Rng,
    expected: &Expected,
    out: &mut Out,
) -> io::Result<()> {
    let g = inputs::relabeled(&inputs::enum_base(s), rng.next());
    let census = |config: ClusterConfig| {
        let fg = FractalContext::new(config).fractal_graph(g.clone());
        let cpu0 = process_cpu_s();
        let (secs, (map, report, _)) = timed(|| motifs_planned(&fg, 4, false, PlanMode::Enumerate));
        let cpu_s = process_cpu_s() - cpu0;
        let ok = oracle::of_motifs(&map) == expected.get(s, "motifs_enum");
        ok.then_some((secs, cpu_s, report)).ok_or(failed("enum"))
    };
    let (two_s, cpu_s, report) = census(ClusterConfig::local(1, 2))?;
    let (one_s, _, _) = census(ClusterConfig::local(1, 1))?;
    let (traced_s, _, _) = census(ClusterConfig::local(1, 2).with_trace(TraceConfig::enabled()))?;
    let step = &report.steps[0];
    let busy = busy_ns(&[step]);
    let units: u64 = step.cores.iter().map(|(_, c)| c.units).sum();
    let failed_rounds: u64 = step.cores.iter().map(|(_, c)| c.failed_steal_rounds).sum();
    out.put(
        "enum.ns_per_ext",
        busy / step.total_ec().max(1) as f64,
        "ns",
    );
    out.put("enum.total_ec", step.total_ec() as f64, "count");
    out.put("runtime.units", units as f64, "count");
    out.put("runtime.ns_per_unit", busy / units.max(1) as f64, "ns");
    out.put("runtime.busy_share", step.utilization(), "ratio");
    out.put("runtime.steal_share", step.steal_overhead(), "ratio");
    out.put("runtime.internal_steals", step.steals().0 as f64, "count");
    out.put("runtime.failed_steal_rounds", failed_rounds as f64, "count");
    out.put("runtime.imbalance", step.imbalance(), "ratio");
    out.put("runtime.scale2", one_s / two_s, "ratio");
    out.put("runtime.cpu_share", cpu_s / (two_s * 2.0), "ratio");
    out.put("runtime.trace_overhead", traced_s / two_s, "ratio");

    // The fixed cost of a job: a triangle through Fractoid::execute.
    let tiny = local_fg(gen::complete(3), 2);
    let empty_s = median_secs(20, || motifs::motifs_fractoid(&tiny, 3, false).execute());
    out.put("runtime.empty_job_s", empty_s, "s");

    // Canonicality check of a vertex extension, on seeded two-vertex
    // prefixes and a neighbour of their second vertex.
    let n = g.num_vertices();
    let mut cases = Vec::new();
    while cases.len() < 4096 {
        let v = rng.below(n) as u32;
        let nv = g.neighbors(VertexId(v));
        if nv.is_empty() {
            continue;
        }
        let w = nv[rng.below(nv.len())];
        let nw = g.neighbors(VertexId(w));
        let u = nw[rng.below(nw.len())];
        if u != v {
            cases.push(([v, w], u));
        }
    }
    let reps = 200;
    let check_s = timed(|| {
        for _ in 0..reps {
            for (prefix, u) in &cases {
                black_box(fractal_enum::canonical::canonical_vertex_extension(
                    &g,
                    black_box(prefix),
                    *u,
                ));
            }
        }
    })
    .0;
    out.put(
        "enum.canon_check_ns",
        check_s * 1e9 / (reps * cases.len()) as f64,
        "ns",
    );
    Ok(())
}

// ---- core and apps: the cluster and serve jobs in-process ----

/// The `fsm_cluster` job in-process at `local(1, 2)`; returns its seconds.
fn fsm_local_probes(
    s: &Sizes,
    rng: &mut Rng,
    expected: &Expected,
    out: &mut Out,
) -> io::Result<f64> {
    let fg = local_fg(inputs::relabeled(&inputs::fsm_base(s), rng.next()), 2);
    let (secs, result) = timed(|| fsm::fsm(&fg, s.fsm_support, 3));
    if oracle::of_fsm_local(&result) != expected.get(s, "fsm_cluster") {
        return Err(failed("apps.fsm_local"));
    }
    out.put("apps.fsm_local_s", secs, "s");
    let steps: Vec<&JobReport> = result.reports.iter().flat_map(|r| &r.steps).collect();
    let ec: u64 = steps.iter().map(|r| r.total_ec()).sum();
    out.put(
        "enum.edge_ns_per_ext",
        busy_ns(&steps) / ec.max(1) as f64,
        "ns",
    );
    out.put("enum.edge_total_ec", ec as f64, "count");
    for (i, name) in ["core.fsm_step1_s", "core.fsm_step2_s", "core.fsm_step3_s"]
        .into_iter()
        .enumerate()
    {
        let step_s = result
            .reports
            .get(i)
            .map_or(0.0, |r| r.elapsed.as_secs_f64());
        out.put(name, step_s, "s");
    }
    let peak = result
        .reports
        .iter()
        .map(|r| r.peak_worker_state_bytes())
        .max()
        .unwrap_or(0);
    out.put("core.peak_state_bytes", peak as f64, "bytes");
    Ok(secs)
}

/// The `serve_mix` job classes in-process on one core; returns the mean
/// seconds of the small classes.
fn serve_local_probes(
    s: &Sizes,
    rng: &mut Rng,
    expected: &Expected,
    out: &mut Out,
) -> io::Result<f64> {
    let small = local_fg(inputs::relabeled(&inputs::small_base(s), rng.next()), 1);
    let small_s = (median_secs(5, || motifs::motifs(&small, 3))
        + median_secs(5, || cliques::count_kclist(&small, 3))
        + median_secs(5, || fsm::fsm(&small, s.small_fsm_support, 1)))
        / 3.0;
    out.put("apps.small_local_s", small_s, "s");

    let big_graph = inputs::relabeled(&inputs::big_base(s), rng.next());
    let dag_s = median_secs(3, || fractal_enum::kclist::CliqueDag::build(&big_graph));
    out.put("enum.kclist_dag_build_s", dag_s, "s");
    let big = local_fg(big_graph, 1);
    let (big_s, (count, report)) = timed(|| cliques::count_kclist_with_report(&big, 5));
    if oracle::of_count(count) != expected.get(s, "serve_kclist5") {
        return Err(failed("apps.big_local"));
    }
    out.put("apps.big_local_s", big_s, "s");
    let steps: Vec<&JobReport> = report.steps.iter().collect();
    let ec: u64 = steps.iter().map(|r| r.total_ec()).sum();
    // KClist keeps its candidate sets in the kernels' bump arena; the
    // vertex enumerator and the plan executor do not use it.
    let arena = steps.iter().map(|r| r.arena_peak_bytes()).max();
    out.put("graph.arena_peak_bytes", arena.unwrap_or(0) as f64, "bytes");
    out.put(
        "enum.kclist_ns_per_ext",
        busy_ns(&steps) / ec.max(1) as f64,
        "ns",
    );
    Ok(small_s)
}

// ---- net ----

fn codec_probes(s: &Sizes, rng: &mut Rng, out: &mut Out) -> io::Result<()> {
    let g: Graph = inputs::relabeled(&inputs::fsm_base(s), rng.next());
    let graph_blob = blob::encode_graph(&g);
    let enc_s = median_secs(5, || blob::encode_graph(&g));
    let dec_s = median_secs(5, || blob::decode_graph(&graph_blob));
    out.put(
        "net.blob_graph_encode_mb_per_s",
        mb_per_s(graph_blob.len(), enc_s),
        "MB/s",
    );
    out.put(
        "net.blob_graph_decode_mb_per_s",
        mb_per_s(graph_blob.len(), dec_s),
        "MB/s",
    );
    let app = AppSpec::Fsm {
        min_support: s.fsm_support,
        max_edges: 3,
    };
    out.put(
        "net.job_blob_bytes",
        blob::encode_job(&app, &g).len() as f64,
        "bytes",
    );

    // A frame the size of a shipped job.
    let frame = Frame::Assign {
        round: 0,
        recovery: false,
        job: Some(graph_blob),
        seed: None,
        roots: (0..g.num_edges() as u64).collect(),
    };
    let wire = encode_frame(7, &frame);
    let enc_s = median_secs(5, || encode_frame(7, &frame));
    let dec_s = median_secs(5, || decode_frame(&wire));
    out.put(
        "net.frame_encode_mb_per_s",
        mb_per_s(wire.len(), enc_s),
        "MB/s",
    );
    out.put(
        "net.frame_decode_mb_per_s",
        mb_per_s(wire.len(), dec_s),
        "MB/s",
    );

    // Heartbeat frames there and back over loopback TCP.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let rounds = 500;
    let beat = Frame::Heartbeat {
        round: 0,
        completed: Vec::new(),
    };
    let rtts = std::thread::scope(|scope| -> io::Result<Vec<f64>> {
        let echo = scope.spawn(|| -> io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            for _ in 0..rounds {
                let (seq, frame) = read_frame(&mut stream)?;
                write_frame(&mut stream, seq, &frame)?;
            }
            Ok(())
        });
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut rtts = Vec::with_capacity(rounds);
        for seq in 0..rounds as u32 {
            let t0 = Instant::now();
            write_frame(&mut stream, seq, &beat)?;
            read_frame(&mut stream)?;
            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        echo.join().expect("echo thread")?;
        Ok(rtts)
    })?;
    out.put("net.loopback_rtt_us", median(&rtts), "us");
    Ok(())
}

/// Reads the cluster layer off a run of `fsm_cluster`.
fn cluster_probes(m: &Measured, fsm_local_s: f64, out: &mut Out) -> io::Result<()> {
    let Some(LastReport::Cluster(result)) = &m.last else {
        return Err(failed("fsm_cluster report"));
    };
    out.put("net.cluster_spawn_s", median(&m.spawn_s), "s");
    out.put(
        "net.cluster_over_local",
        median(&m.job_secs(None)) / fsm_local_s,
        "ratio",
    );
    out.put("net.steal_relays", result.steal_relays as f64, "count");
    out.put("net.net_units", result.report.net_units() as f64, "count");
    out.put("net.rounds", result.rounds as f64, "count");
    // The aggregation maps a round ships: one entry per pattern, position
    // and vertex of its domain.
    let entries: usize = result
        .frequent
        .iter()
        .flat_map(|round| round.values())
        .flat_map(|sup| sup.domains())
        .map(|domain| domain.len())
        .sum();
    out.put("core.agg_entries", entries as f64, "count");
    let agg_blob = blob::encode_fsm_seeds(&result.frequent);
    let enc_s = median_secs(5, || blob::encode_fsm_seeds(&result.frequent));
    let dec_s = median_secs(5, || blob::decode_fsm_seeds(&agg_blob));
    out.put(
        "net.blob_agg_encode_mb_per_s",
        mb_per_s(agg_blob.len(), enc_s),
        "MB/s",
    );
    out.put(
        "net.blob_agg_decode_mb_per_s",
        mb_per_s(agg_blob.len(), dec_s),
        "MB/s",
    );
    out.put("net.agg_blob_bytes", agg_blob.len() as f64, "bytes");
    Ok(())
}

/// Reads the serve layer off a run of `serve_mix` and its journal.
fn serve_probes(m: &Measured, small_local_s: f64, scratch: &Path, out: &mut Out) -> io::Result<()> {
    let of = |f: fn(&workloads::JobSample) -> f64, big: Option<bool>| -> Vec<f64> {
        m.jobs
            .iter()
            .filter(|j| j.correct && big.is_none_or(|b| (j.class == BIG_CLASS) == b))
            .map(f)
            .collect()
    };
    out.put(
        "net.serve_submit_ack_s",
        median(&of(|j| j.ack_s, None)),
        "s",
    );
    out.put(
        "net.serve_first_event_s",
        median(&of(|j| j.first_event_s, None)),
        "s",
    );
    out.put(
        "net.serve_result_fetch_s",
        median(&of(|j| j.fetch_s, None)),
        "s",
    );
    out.put(
        "net.serve_small_overhead_s",
        median(&of(|j| j.secs, Some(false))) - small_local_s,
        "s",
    );
    out.put(
        "net.serve_big_job_s",
        median(&of(|j| j.secs, Some(true))),
        "s",
    );
    out.put(
        "net.serve_job_p95_s",
        quantile(&sorted(&of(|j| j.secs, None)), 0.95),
        "s",
    );
    let Some(LastReport::Serve(report)) = &m.last else {
        return Err(failed("serve_mix report"));
    };
    out.put(
        "net.snapshot_evictions",
        report.faults.snapshot_evictions as f64,
        "count",
    );
    out.put(
        "net.jobs_rejected",
        report.faults.jobs_rejected as f64,
        "count",
    );

    // The run's journal: every job the daemon admitted, priming and
    // warm-up jobs included.
    let dir = m.journal_dir.as_deref().ok_or(failed("journal dir"))?;
    let bytes = std::fs::metadata(dir.join(fractal_net::journal::JOURNAL_FILE))?.len() as usize;
    let (replay_s, opened) = timed(|| Journal::open(dir));
    let (_, replay) = opened?;
    let admitted = (m.jobs.len() + 2 * WARMUPS + 2) as f64;
    out.put(
        "net.journal_appends_per_job",
        replay.replayed as f64 / admitted,
        "count",
    );
    out.put(
        "net.journal_bytes_per_job",
        bytes as f64 / admitted,
        "bytes",
    );
    out.put(
        "net.journal_replay_mb_per_s",
        mb_per_s(bytes, replay_s),
        "MB/s",
    );

    let probe_dir = scratch.join("probe-journal");
    let (mut journal, _) = Journal::open(&probe_dir)?;
    let mut appends = Vec::new();
    for job in 0..200 {
        let (secs, r) = timed(|| journal.append(&Record::JobStarted { job }));
        r?;
        appends.push(secs * 1e6);
    }
    out.put("net.journal_append_us", median(&appends), "us");
    Ok(())
}
