//! The graph file format.
//!
//! The **adjacency-list format** (the format used by Arabesque and the
//! original Fractal release), so that the real evaluation datasets (Mico,
//! Patents, Youtube, Wikidata — Table 1) can be dropped in when available:
//! one line per vertex, `vertex_id vertex_label neighbor1 [neighbor2 ...]`,
//! with every undirected edge appearing in both endpoint lines. A labeled
//! variant writes `neighbor,edge_label` pairs.

use crate::builder::try_graph_from_edges;
use crate::{Graph, GraphError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Loads a graph in the Arabesque adjacency-list format from `path`.
pub fn load_adjacency_list(path: impl AsRef<Path>) -> Result<Graph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_adjacency_list(BufReader::new(file))
}

/// Reads the adjacency-list format from any reader.
///
/// Lines are `vid vlabel nbr1 [nbr2 ...]`; a neighbor token may be
/// `nbr,elabel` to carry an edge label. Vertex ids must be dense `0..n` and
/// lines must appear in id order (the format used by Arabesque's datasets).
pub fn read_adjacency_list<R: Read>(reader: BufReader<R>) -> Result<Graph, GraphError> {
    let mut labels: Vec<u32> = Vec::new();
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| GraphError::Parse(lineno + 1, what.into());
        let mut tok = line.split_whitespace();
        let vid: u32 = tok
            .next()
            .expect("a trimmed non-empty line has a token")
            .parse()
            .map_err(|_| bad("bad vertex id"))?;
        if vid as usize != labels.len() {
            return Err(bad(&format!(
                "vertex ids must be dense and ordered, got {vid}"
            )));
        }
        let vlabel = tok.next().ok_or_else(|| bad("missing vertex label"))?;
        labels.push(vlabel.parse().map_err(|_| bad("bad vertex label"))?);
        for t in tok {
            let (nbr, elabel) = t.split_once(',').unwrap_or((t, "0"));
            let nbr: u32 = nbr.parse().map_err(|_| bad("bad neighbor id"))?;
            let elabel: u32 = elabel.parse().map_err(|_| bad("bad edge label"))?;
            // Each undirected edge appears twice; keep the (u < v) copy.
            if vid < nbr {
                edges.push((vid, nbr, elabel));
            }
        }
    }
    try_graph_from_edges(&labels, &edges)
}

/// Writes `g` in the adjacency-list format (with `nbr,elabel` tokens when
/// the graph has non-zero edge labels).
pub fn write_adjacency_list(g: &Graph, mut w: impl Write) -> std::io::Result<()> {
    let labeled_edges = g.num_edge_labels() > 1;
    for v in g.vertices() {
        write!(w, "{} {}", v.raw(), g.vertex_label(v).raw())?;
        for (&nbr, &e) in g.neighbors(v).iter().zip(g.incident_edges(v)) {
            if labeled_edges {
                write!(w, " {},{}", nbr, g.edge_labels[e as usize])?;
            } else {
                write!(w, " {nbr}")?;
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Saves `g` to `path` in the adjacency-list format.
pub fn save_adjacency_list(g: &Graph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_adjacency_list(g, BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::{Label, VertexId};

    #[test]
    fn adjacency_roundtrip_unlabeled_edges() {
        let g = graph_from_edges(&[1, 2, 1, 0], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)]);
        let mut buf = Vec::new();
        write_adjacency_list(&g, &mut buf).unwrap();
        let g2 = read_adjacency_list(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(g2.num_vertices(), 4);
        assert_eq!(g2.num_edges(), 4);
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
            assert_eq!(g.vertex_label(v), g2.vertex_label(v));
        }
    }

    #[test]
    fn adjacency_roundtrip_labeled_edges() {
        let g = graph_from_edges(&[1, 2, 1], &[(0, 1, 5), (1, 2, 9)]);
        let mut buf = Vec::new();
        write_adjacency_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("1,5"));
        let g2 = read_adjacency_list(BufReader::new(buf.as_slice())).unwrap();
        let e = g2.edge_between(VertexId(1), VertexId(2)).unwrap();
        assert_eq!(g2.edge_label(e), Label(9));
    }

    #[test]
    fn adjacency_rejects_sparse_ids() {
        let input = b"0 1 1\n2 1 0\n" as &[u8];
        assert!(read_adjacency_list(BufReader::new(input)).is_err());
    }

    #[test]
    fn adjacency_rejects_invalid_edges_by_name() {
        // Vertex 0 lists neighbour 1 twice; then a neighbour past the last line.
        let dup = b"0 0 1 1\n1 0 0\n" as &[u8];
        assert!(matches!(
            read_adjacency_list(BufReader::new(dup)),
            Err(GraphError::DuplicateEdge(0, 1))
        ));
        let unknown = b"0 0 1 7\n1 0 0\n" as &[u8];
        assert!(matches!(
            read_adjacency_list(BufReader::new(unknown)),
            Err(GraphError::UnknownVertex(7))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let g = graph_from_edges(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]);
        let dir = std::env::temp_dir().join("fractal_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.adj");
        save_adjacency_list(&g, &path).unwrap();
        let g2 = load_adjacency_list(&path).unwrap();
        assert_eq!(g2.num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }
}
