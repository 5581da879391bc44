//! Workload inputs. The topology of every input graph is fixed (generator
//! seed [`GEN_SEED`]); `--seed` draws a fresh vertex relabeling for every
//! job's graph file and the order of the `serve_mix` job sequences.
//!
//! Why not a fresh topology per seed: on this box the same job on
//! `mico_like(450, 1, s)` for s = 1..8 took 0.85–1.02 s and FSM on
//! `patents_like(2800, 37, s)` 1.08–2.29 s, so seed-to-seed differences
//! in the amount of work would swamp a 10 % bound. A relabeling keeps the
//! result (motif counts, supports, clique counts are invariant under
//! isomorphism) and the total work, yet changes vertex ids, file layout,
//! enumeration order, kernel inputs and steal patterns. What variance it
//! leaves (±3 % per graph) is averaged out by giving every job of a run
//! its own relabeling.

use crate::util::Rng;
use fractal_core::{FractalContext, FractalGraph};
use fractal_graph::{gen, graph_from_edges, io::save_adjacency_list, Graph};
use fractal_runtime::ClusterConfig;
use std::path::{Path, PathBuf};

pub const GEN_SEED: u64 = 2019;

/// Input sizes of one benchmark scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub label: &'static str,
    /// `motifs_enum`: `mico_like(enum_n, 1)`, 4-motifs.
    pub enum_n: usize,
    /// `motifs_plan`: `patents_like(plan_n, 1)`, 5-motifs.
    pub plan_n: usize,
    /// `fsm_cluster`: `patents_like(fsm_n, 37)`, `Fsm{fsm_support, 3}`.
    pub fsm_n: usize,
    pub fsm_support: u64,
    /// `serve_mix` small snapshot: `mico_like(small_n, 29)`.
    pub small_n: usize,
    pub small_fsm_support: u64,
    /// `serve_mix` big snapshot: `orkut_like(big_n)`, `Kclist{5}`.
    pub big_n: usize,
    /// Timed jobs of the three sequential workloads in a 20 s run.
    pub jobs_per_20s: usize,
    /// Timed jobs of each of the two `serve_mix` clients in a 20 s run.
    pub serve_jobs_per_20s: usize,
    /// Timed set-ups of a run; `setup_s` is their median.
    pub setup_reps: usize,
}

pub const FULL: Sizes = Sizes {
    label: "full",
    enum_n: 490,
    plan_n: 1600,
    fsm_n: 1900,
    fsm_support: 45,
    small_n: 400,
    small_fsm_support: 40,
    big_n: 20000,
    jobs_per_20s: 20,
    serve_jobs_per_20s: 300,
    setup_reps: 9,
};

/// A tenth of the size: `--check` proves the oracle and the worker verb
/// in a few seconds and times nothing.
pub const CHECK: Sizes = Sizes {
    label: "check",
    enum_n: 120,
    plan_n: 160,
    fsm_n: 400,
    fsm_support: 20,
    small_n: 100,
    small_fsm_support: 10,
    big_n: 2000,
    jobs_per_20s: 2,
    serve_jobs_per_20s: 16,
    setup_reps: 2,
};

impl Sizes {
    /// The fixed job count of a run of `seconds`: set by the benchmark,
    /// identical on every commit.
    pub fn jobs(&self, per_20s: usize, seconds: f64) -> usize {
        ((per_20s as f64 * seconds / 20.0).round() as usize).max(2)
    }
}

pub fn enum_base(s: &Sizes) -> Graph {
    gen::mico_like(s.enum_n, 1, GEN_SEED)
}

pub fn plan_base(s: &Sizes) -> Graph {
    gen::patents_like(s.plan_n, 1, GEN_SEED)
}

pub fn fsm_base(s: &Sizes) -> Graph {
    gen::patents_like(s.fsm_n, 37, GEN_SEED)
}

pub fn small_base(s: &Sizes) -> Graph {
    gen::mico_like(s.small_n, 29, GEN_SEED)
}

pub fn big_base(s: &Sizes) -> Graph {
    gen::orkut_like(s.big_n, GEN_SEED)
}

/// A one-worker context of `cores` threads over `g`.
pub fn local_fg(g: Graph, cores: usize) -> FractalGraph {
    FractalContext::new(ClusterConfig::local(1, cores)).fractal_graph(g)
}

/// `g` with its vertex ids permuted by `seed`; labels travel with their
/// vertices and edges.
pub fn relabeled(g: &Graph, seed: u64) -> Graph {
    let n = g.num_vertices();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    Rng::new(seed).shuffle(&mut perm);
    let mut labels = vec![0u32; n];
    for v in g.vertices() {
        labels[perm[v.raw() as usize] as usize] = g.vertex_label(v).raw();
    }
    let edges: Vec<(u32, u32, u32)> = g
        .edges()
        .map(|e| {
            let (u, v) = g.edge_endpoints(e);
            (
                perm[u.raw() as usize],
                perm[v.raw() as usize],
                g.edge_label(e).raw(),
            )
        })
        .collect();
    graph_from_edges(&labels, &edges)
}

/// Writes `count` relabelings of `base` as `<dir>/<stem>-<i>.adj`.
pub fn write_relabelings(
    base: &Graph,
    seed: u64,
    count: usize,
    dir: &Path,
    stem: &str,
) -> std::io::Result<Vec<PathBuf>> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            let path = dir.join(format!("{stem}-{i}.adj"));
            save_adjacency_list(&relabeled(base, rng.next()), &path)?;
            Ok(path)
        })
        .collect()
}
