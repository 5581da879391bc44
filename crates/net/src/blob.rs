//! Payload blob encodings: the typed content carried inside wire frames.
//!
//! Frames ([`crate::frame`]) move opaque byte blobs; this module defines
//! what's inside them — the job spec (graph + application), aggregation
//! maps (motif counts, FSM domain supports), and the per-worker metrics
//! report. All encodings are big-endian, deterministic (maps are sorted
//! before encoding) and bounds-checked on decode, mirroring the frame
//! layer's adversarial-input posture.

use fractal_apps::fsm::{Domain, DomainSupport};
use fractal_graph::{try_graph_from_edges, Graph, GraphError};
use fractal_pattern::CanonicalCode;
use fractal_runtime::fault::FaultStats;
use fractal_runtime::level::GlobalCoreId;
use fractal_runtime::stats::{get_fields, put_fields, CoreStats, JobReport, PlannerStats};
use fractal_runtime::wire::{self, Reader, Writer};
use std::collections::HashMap;
use std::time::Duration;

/// Why a blob failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlobError {
    /// Fewer bytes than the structure requires.
    Truncated,
    /// Structurally invalid content.
    Malformed(&'static str),
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlobError::Truncated => write!(f, "truncated blob"),
            BlobError::Malformed(what) => write!(f, "malformed blob: {what}"),
        }
    }
}

impl std::error::Error for BlobError {}

impl From<wire::Error> for BlobError {
    fn from(e: wire::Error) -> Self {
        match e {
            wire::Error::Truncated => BlobError::Truncated,
            wire::Error::TrailingBytes => BlobError::Malformed("trailing bytes"),
            wire::Error::BadUtf8 => BlobError::Malformed("utf-8 string"),
        }
    }
}

// ---- app spec ----

/// Which GPM application a cluster job runs. Its bytes are below; what
/// each variant runs, merges and commits on a cluster is [`crate::app`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpec {
    /// Motif counting: `vfractoid.expand(k).aggregate("motifs", …)`, or —
    /// with `decomposed` — the compiled counting-plan path (workers
    /// evaluate the shared plan DAG over their root partition and flush
    /// raw per-node totals; the driver combines them by Möbius inversion).
    Motifs {
        k: u32,
        use_labels: bool,
        decomposed: bool,
    },
    /// k-clique counting with the KClist enumerator.
    Kclist { k: u32 },
    /// Frequent subgraph mining (iterative, one round per pattern size).
    Fsm { min_support: u64, max_edges: u32 },
}

fn put_app(out: &mut Writer, app: &AppSpec) {
    match app {
        AppSpec::Motifs {
            k,
            use_labels,
            decomposed,
        } => {
            out.u8(1);
            out.u32(*k);
            // Flags byte: bit 0 = use_labels, bit 1 = decomposed. Plain
            // 0/1 values stay wire-compatible with the pre-planner layout.
            out.u8((*use_labels as u8) | ((*decomposed as u8) << 1));
        }
        AppSpec::Kclist { k } => {
            out.u8(2);
            out.u32(*k);
        }
        AppSpec::Fsm {
            min_support,
            max_edges,
        } => {
            out.u8(3);
            out.u64(*min_support);
            out.u32(*max_edges);
        }
    }
}

fn get_app(c: &mut Reader<'_>) -> Result<AppSpec, BlobError> {
    Ok(match c.u8()? {
        1 => {
            let k = c.u32()?;
            let flags = c.u8()?;
            if flags > 3 {
                return Err(BlobError::Malformed("motifs flags"));
            }
            if flags == 3 {
                // The planner compiles unlabeled plans only.
                return Err(BlobError::Malformed("labeled decomposed motifs"));
            }
            AppSpec::Motifs {
                k,
                use_labels: flags & 1 != 0,
                decomposed: flags & 2 != 0,
            }
        }
        2 => AppSpec::Kclist { k: c.u32()? },
        3 => AppSpec::Fsm {
            min_support: c.u64()?,
            max_edges: c.u32()?,
        },
        _ => return Err(BlobError::Malformed("app tag")),
    })
}

/// Encodes an app spec alone — the payload of a `Submit` frame, where the
/// graph travels separately as a registered snapshot id.
pub fn encode_app_spec(app: &AppSpec) -> Vec<u8> {
    let mut out = Writer::new();
    put_app(&mut out, app);
    out.finish()
}

/// Decodes an app spec encoded by [`encode_app_spec`].
pub fn decode_app_spec(bytes: &[u8]) -> Result<AppSpec, BlobError> {
    let mut c = Reader::new(bytes);
    let app = get_app(&mut c)?;
    c.finish()?;
    Ok(app)
}

// ---- graph ----

/// Encodes a graph as vertex labels + `(u, v, label)` edge triples. Edge
/// order is the graph's canonical edge-id order, so a decode on any
/// machine rebuilds a bit-identical CSR (and therefore identical work
/// words and enumeration order).
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let mut out = Writer::with_capacity(4 + g.num_vertices() * 4 + 4 + g.num_edges() * 12);
    out.u32(g.num_vertices() as u32);
    for v in g.vertices() {
        out.u32(g.vertex_label(v).raw());
    }
    out.u32(g.num_edges() as u32);
    for e in g.edges() {
        let (u, v) = g.edge_endpoints(e);
        out.u32(u.0);
        out.u32(v.0);
        out.u32(g.edge_label(e).raw());
    }
    out.finish()
}

/// Decodes a graph encoded by [`encode_graph`]. The edge list is checked
/// where the CSR is built ([`try_graph_from_edges`]): a self-loop or an
/// endpoint past the last vertex is `Malformed("edge endpoint")`, a
/// repeated undirected edge `Malformed("duplicate edge")`.
pub fn decode_graph(bytes: &[u8]) -> Result<Graph, BlobError> {
    let mut c = Reader::new(bytes);
    let nv = c.count(4)?;
    let mut labels = Vec::with_capacity(nv);
    for _ in 0..nv {
        labels.push(c.u32()?);
    }
    let ne = c.count(12)?;
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        edges.push((c.u32()?, c.u32()?, c.u32()?));
    }
    c.finish()?;
    try_graph_from_edges(&labels, &edges).map_err(|e| match e {
        GraphError::DuplicateEdge(..) => BlobError::Malformed("duplicate edge"),
        _ => BlobError::Malformed("edge endpoint"),
    })
}

// ---- job (app + graph) ----

/// Encodes a job blob: the app spec followed by the whole graph.
pub fn encode_job(app: &AppSpec, g: &Graph) -> Vec<u8> {
    let mut out = Writer::new();
    put_app(&mut out, app);
    out.raw(&encode_graph(g));
    out.finish()
}

/// Decodes a job blob back into the app spec and input graph.
pub fn decode_job(bytes: &[u8]) -> Result<(AppSpec, Graph), BlobError> {
    let mut c = Reader::new(bytes);
    let app = get_app(&mut c)?;
    Ok((app, decode_graph(c.rest())?))
}

/// Encodes the job part of a session's first `Assign`: the id its
/// connection knows the graph by, a flag, and the app spec. `graph` is
/// the [`encode_graph`] bytes, carried only on the connection's first use
/// of the id; after the flag, a part that carries them is a job blob
/// ([`encode_job`]).
pub fn encode_job_part(app: &AppSpec, graph_id: u64, graph: Option<&[u8]>) -> Vec<u8> {
    let mut out = Writer::new();
    out.u64(graph_id);
    out.u8(u8::from(graph.is_some()));
    put_app(&mut out, app);
    if let Some(g) = graph {
        out.raw(g);
    }
    out.finish()
}

/// Decodes a job part encoded by [`encode_job_part`]: the graph id, the
/// app spec and the graph when the part carries it.
pub fn decode_job_part(bytes: &[u8]) -> Result<(u64, AppSpec, Option<Graph>), BlobError> {
    let mut c = Reader::new(bytes);
    let graph_id = c.u64()?;
    match c.u8()? {
        0 => Ok((graph_id, decode_app_spec(c.rest())?, None)),
        1 => {
            let (app, graph) = decode_job(c.rest())?;
            Ok((graph_id, app, Some(graph)))
        }
        _ => Err(BlobError::Malformed("job part flag")),
    }
}

// ---- canonical codes ----

fn put_code(out: &mut Writer, code: &CanonicalCode) {
    out.u32(code.0.len() as u32);
    for &w in &code.0 {
        out.u32(w);
    }
}

fn get_code(c: &mut Reader<'_>) -> Result<CanonicalCode, BlobError> {
    let n = c.count(4)?;
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(c.u32()?);
    }
    Ok(CanonicalCode(words))
}

// ---- motifs aggregation map ----

/// Encodes a motif count map, sorted by canonical code for determinism.
pub fn encode_motifs_map(map: &HashMap<CanonicalCode, u64>) -> Vec<u8> {
    let mut rows: Vec<(&CanonicalCode, &u64)> = map.iter().collect();
    rows.sort_by(|a, b| a.0 .0.cmp(&b.0 .0));
    let mut out = Writer::new();
    out.u32(rows.len() as u32);
    for (code, count) in rows {
        put_code(&mut out, code);
        out.u64(*count);
    }
    out.finish()
}

/// Decodes a motif count map.
pub fn decode_motifs_map(bytes: &[u8]) -> Result<HashMap<CanonicalCode, u64>, BlobError> {
    let mut c = Reader::new(bytes);
    let n = c.count(12)?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let code = get_code(&mut c)?;
        let count = c.u64()?;
        if map.insert(code, count).is_some() {
            return Err(BlobError::Malformed("duplicate motif key"));
        }
    }
    c.finish()?;
    Ok(map)
}

// ---- plan totals (decomposed motifs aggregation) ----

/// Encodes a decomposed-plan partial-totals vector: one `i128` per plan
/// node, each split into two big-endian `u64` halves (high word first).
pub fn encode_plan_totals(totals: &[i128]) -> Vec<u8> {
    let mut out = Writer::new();
    out.u32(totals.len() as u32);
    for &v in totals {
        out.i128(v);
    }
    out.finish()
}

/// Decodes a totals vector encoded by [`encode_plan_totals`].
pub fn decode_plan_totals(bytes: &[u8]) -> Result<Vec<i128>, BlobError> {
    let mut c = Reader::new(bytes);
    let n = c.count(16)?;
    let mut totals = Vec::with_capacity(n);
    for _ in 0..n {
        totals.push(c.i128()?);
    }
    c.finish()?;
    Ok(totals)
}

// ---- FSM aggregation map ----

/// Encodes an FSM support map: per canonical pattern, the per-position
/// vertex domains (each domain's ids ascending; patterns sorted by code).
pub fn encode_fsm_map(map: &HashMap<CanonicalCode, DomainSupport>) -> Vec<u8> {
    let mut rows: Vec<(&CanonicalCode, &DomainSupport)> = map.iter().collect();
    rows.sort_by(|a, b| a.0 .0.cmp(&b.0 .0));
    let mut out = Writer::new();
    out.u32(rows.len() as u32);
    for (code, sup) in rows {
        put_code(&mut out, code);
        let domains = sup.domains();
        out.u32(domains.len() as u32);
        for d in domains {
            out.u32(d.len() as u32);
            for v in d.iter() {
                out.u32(v);
            }
        }
    }
    out.finish()
}

/// Decodes an FSM support map. Each domain's ids must be strictly
/// increasing, as the encoder writes them.
pub fn decode_fsm_map(bytes: &[u8]) -> Result<HashMap<CanonicalCode, DomainSupport>, BlobError> {
    let mut c = Reader::new(bytes);
    let n = c.count(8)?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let code = get_code(&mut c)?;
        let nd = c.count(4)?;
        let mut domains = Vec::with_capacity(nd);
        for _ in 0..nd {
            let nv = c.count(4)?;
            let ids = c
                .take(nv * 4)?
                .chunks_exact(4)
                .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            domains.push(Domain::from_increasing(ids).ok_or(BlobError::Malformed(
                "fsm domain ids not strictly increasing",
            ))?);
        }
        if map
            .insert(code, DomainSupport::from_domains(domains))
            .is_some()
        {
            return Err(BlobError::Malformed("duplicate fsm key"));
        }
    }
    c.finish()?;
    Ok(map)
}

/// Encodes the seed list an FSM `Assign` ships for round `r`: the globally
/// merged + filtered support maps of rounds `0..r`, in round order.
pub fn encode_fsm_seeds(seeds: &[HashMap<CanonicalCode, DomainSupport>]) -> Vec<u8> {
    let mut out = Writer::new();
    out.u32(seeds.len() as u32);
    for map in seeds {
        out.bytes(&encode_fsm_map(map));
    }
    out.finish()
}

/// Decodes a seed list encoded by [`encode_fsm_seeds`].
pub fn decode_fsm_seeds(
    bytes: &[u8],
) -> Result<Vec<HashMap<CanonicalCode, DomainSupport>>, BlobError> {
    let mut c = Reader::new(bytes);
    let n = c.count(4)?;
    let mut seeds = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.count(1)?;
        seeds.push(decode_fsm_map(c.take(len)?)?);
    }
    c.finish()?;
    Ok(seeds)
}

// ---- metrics report ----

/// Encodes the metrics-relevant subset of a worker's [`JobReport`]: wall
/// time, server counters and the three counter tables in struct order
/// (busy segments are dropped — they only feed local timeline rendering).
pub fn encode_report(r: &JobReport) -> Vec<u8> {
    let mut out = Writer::new();
    out.u64(r.elapsed.as_nanos() as u64);
    out.u64(r.bytes_served);
    out.u64(r.steal_requests);
    out.u64(r.steal_hits);
    put_fields(FaultStats::FIELDS, &r.faults, &mut out);
    put_fields(PlannerStats::FIELDS, &r.planner, &mut out);
    out.u32(r.cores.len() as u32);
    for (id, s) in &r.cores {
        out.u32(id.worker as u32);
        out.u32(id.core as u32);
        put_fields(CoreStats::FIELDS, s, &mut out);
    }
    out.finish()
}

/// Decodes a report encoded by [`encode_report`].
pub fn decode_report(bytes: &[u8]) -> Result<JobReport, BlobError> {
    let mut c = Reader::new(bytes);
    let elapsed = Duration::from_nanos(c.u64()?);
    let bytes_served = c.u64()?;
    let steal_requests = c.u64()?;
    let steal_hits = c.u64()?;
    let faults = get_fields(FaultStats::FIELDS, &mut c)?;
    let planner = get_fields(PlannerStats::FIELDS, &mut c)?;
    let ncores = c.count(8 + CoreStats::FIELDS.len() * 8)?;
    let mut cores = Vec::with_capacity(ncores);
    for _ in 0..ncores {
        let id = GlobalCoreId {
            worker: c.u32()? as usize,
            core: c.u32()? as usize,
        };
        cores.push((id, get_fields(CoreStats::FIELDS, &mut c)?));
    }
    c.finish()?;
    Ok(JobReport {
        elapsed,
        cores,
        bytes_served,
        steal_requests,
        steal_hits,
        faults,
        planner,
        trace: None,
        workers: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_graph::gen;

    #[test]
    fn graph_round_trip_is_identical() {
        let g = gen::mico_like(120, 4, 7);
        let bytes = encode_graph(&g);
        let g2 = decode_graph(&bytes).expect("decode");
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in g.vertices() {
            assert_eq!(g.vertex_label(v), g2.vertex_label(v));
            assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
        for e in g.edges() {
            assert_eq!(g.edge_endpoints(e), g2.edge_endpoints(e));
            assert_eq!(g.edge_label(e), g2.edge_label(e));
        }
        // And a second encode is bit-identical (determinism).
        assert_eq!(bytes, encode_graph(&g2));
    }

    #[test]
    fn motifs_map_round_trip_and_determinism() {
        let mut map = HashMap::new();
        map.insert(CanonicalCode(vec![3, 1, 2]), 99u64);
        map.insert(CanonicalCode(vec![1]), 7);
        map.insert(CanonicalCode(vec![]), 1);
        let bytes = encode_motifs_map(&map);
        assert_eq!(decode_motifs_map(&bytes).expect("decode"), map);
        assert_eq!(bytes, encode_motifs_map(&map.clone()));
    }

    #[test]
    fn plan_totals_round_trip() {
        let totals = vec![
            0i128,
            1,
            -1,
            u64::MAX as i128 + 17,
            i128::MAX,
            i128::MIN,
            -(1i128 << 100),
        ];
        let bytes = encode_plan_totals(&totals);
        assert_eq!(decode_plan_totals(&bytes).expect("decode"), totals);
        assert_eq!(
            decode_plan_totals(&encode_plan_totals(&[])).expect("decode"),
            Vec::<i128>::new()
        );
        // Truncations error cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_plan_totals(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn fsm_map_round_trip() {
        let mut map = HashMap::new();
        map.insert(
            CanonicalCode(vec![2, 0, 1]),
            DomainSupport::from_domains(vec![
                [1u32, 5, 9].into_iter().collect(),
                [2u32].into_iter().collect(),
                Domain::default(),
            ]),
        );
        map.insert(
            CanonicalCode(vec![2, 0, 0]),
            DomainSupport::from_domains(vec![[0u32, 1].into_iter().collect()]),
        );
        let bytes = encode_fsm_map(&map);
        let got = decode_fsm_map(&bytes).expect("decode");
        assert_eq!(got.len(), 2);
        for (code, sup) in &map {
            let g = &got[code];
            assert_eq!(g.domains(), sup.domains());
            assert_eq!(g.support(), sup.support());
        }
    }

    #[test]
    fn fsm_map_refuses_id_runs_out_of_order() {
        // One pattern, one domain of ids 1, 5, 9: the blob ends with them.
        let one = |ids: &[u32]| {
            let mut map = HashMap::new();
            map.insert(
                CanonicalCode(vec![2, 0, 0]),
                DomainSupport::from_domains(vec![ids.iter().copied().collect()]),
            );
            encode_fsm_map(&map)
        };
        let good = one(&[1, 5, 9]);
        let at = good.len() - 12;
        let with_ids = |ids: [u32; 3]| {
            let mut bytes = good[..at].to_vec();
            bytes.extend(ids.iter().flat_map(|v| v.to_be_bytes()));
            decode_fsm_map(&bytes)
        };
        assert_eq!(
            with_ids([1, 5, 9]).expect("decode")[&CanonicalCode(vec![2, 0, 0])].support(),
            3
        );
        let refused = BlobError::Malformed("fsm domain ids not strictly increasing");
        assert_eq!(with_ids([1, 9, 5]).unwrap_err(), refused);
        assert_eq!(with_ids([1, 5, 5]).unwrap_err(), refused);
        assert_eq!(with_ids([9, 5, 1]).unwrap_err(), refused);
        for cut in 0..good.len() {
            assert!(decode_fsm_map(&good[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(
            decode_fsm_map(&good[..good.len() - 4]).unwrap_err(),
            BlobError::Truncated
        );
        // A dense run decodes to the same bitmap the ids build.
        let dense: Vec<u32> = (0..100).collect();
        let back = decode_fsm_map(&one(&dense)).expect("decode");
        let domain = &back[&CanonicalCode(vec![2, 0, 0])].domains()[0];
        assert!(domain.is_bitmap());
        assert_eq!(domain.iter().collect::<Vec<_>>(), dense);
    }

    #[test]
    fn app_spec_and_job_round_trip() {
        let g = gen::patents_like(60, 3, 5);
        for app in [
            AppSpec::Motifs {
                k: 3,
                use_labels: true,
                decomposed: false,
            },
            AppSpec::Motifs {
                k: 5,
                use_labels: false,
                decomposed: true,
            },
            AppSpec::Kclist { k: 4 },
            AppSpec::Fsm {
                min_support: 12,
                max_edges: 3,
            },
        ] {
            assert_eq!(decode_app_spec(&encode_app_spec(&app)), Ok(app));
            let (app2, g2) = decode_job(&encode_job(&app, &g)).expect("decode");
            assert_eq!(app, app2);
            assert_eq!(g.num_edges(), g2.num_edges());
            let graph = encode_graph(&g);
            let (id, app3, g3) =
                decode_job_part(&encode_job_part(&app, 7, Some(&graph))).expect("decode");
            assert_eq!((id, app3), (7, app));
            assert_eq!(g3.map(|g3| encode_graph(&g3)), Some(graph));
            let (id, app4, g4) = decode_job_part(&encode_job_part(&app, 9, None)).expect("decode");
            assert_eq!((id, app4, g4.is_none()), (9, app, true));
        }
        let mut part = encode_job_part(&AppSpec::Kclist { k: 3 }, 1, None);
        part[8] = 2;
        assert_eq!(
            decode_job_part(&part).err(),
            Some(BlobError::Malformed("job part flag"))
        );
        assert!(decode_app_spec(&[]).is_err());
        assert!(decode_app_spec(&[9]).is_err());
        // Unknown flag bits and the labeled+decomposed combination are
        // rejected at decode.
        assert!(decode_app_spec(&[1, 0, 0, 0, 3, 4]).is_err());
        assert!(decode_app_spec(&[1, 0, 0, 0, 3, 7]).is_err());
        // Trailing bytes after a valid spec are rejected.
        let mut bytes = encode_app_spec(&AppSpec::Kclist { k: 3 });
        bytes.push(0);
        assert!(decode_app_spec(&bytes).is_err());
    }

    /// A well-framed graph blob whose edge list breaks the model is
    /// rejected by name, never by a panic in the session thread.
    #[test]
    fn invalid_edge_lists_are_rejected_by_name() {
        let blob = |edges: &[(u32, u32, u32)]| {
            let mut out = Writer::new();
            out.u32(3);
            for l in [0, 1, 0] {
                out.u32(l);
            }
            out.u32(edges.len() as u32);
            for &(u, v, l) in edges {
                out.u32(u);
                out.u32(v);
                out.u32(l);
            }
            out.finish()
        };
        assert!(decode_graph(&blob(&[(0, 1, 0), (1, 2, 0)])).is_ok());
        for (edges, what) in [
            (&[(0, 1, 0), (2, 2, 0)][..], "edge endpoint"),
            (&[(0, 1, 0), (1, 3, 0)][..], "edge endpoint"),
            (&[(3, 1, 0)][..], "edge endpoint"),
            (&[(0, 1, 0), (1, 2, 0), (0, 1, 0)][..], "duplicate edge"),
            (&[(0, 1, 0), (1, 2, 0), (1, 0, 5)][..], "duplicate edge"),
        ] {
            assert_eq!(
                decode_graph(&blob(edges)).err(),
                Some(BlobError::Malformed(what)),
                "{edges:?}"
            );
            let mut job = encode_app_spec(&AppSpec::Kclist { k: 3 });
            job.extend(blob(edges));
            assert_eq!(decode_job(&job).err(), Some(BlobError::Malformed(what)));
        }
    }

    #[test]
    fn truncated_blobs_error_cleanly() {
        let g = gen::mico_like(40, 2, 3);
        let graph_bytes = encode_graph(&g);
        let mut map = HashMap::new();
        map.insert(CanonicalCode(vec![1, 2]), 5u64);
        let motif_bytes = encode_motifs_map(&map);
        for bytes in [&graph_bytes, &motif_bytes] {
            for cut in 0..bytes.len().min(64) {
                assert!(
                    decode_graph(&bytes[..cut]).is_err()
                        || decode_motifs_map(&bytes[..cut]).is_err()
                );
            }
        }
    }
}
