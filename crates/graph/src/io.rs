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
use std::io::{BufReader, BufWriter, Read, Write};
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
/// The input is parsed from its bytes in one pass, with no `String` per
/// line: tokens split on ASCII whitespace, numbers read as `str::parse`
/// reads a `u32`.
pub fn read_adjacency_list<R: Read>(mut reader: BufReader<R>) -> Result<Graph, GraphError> {
    let mut text = Vec::new();
    reader.read_to_end(&mut text)?;
    let (mut labels, mut edges) = (Vec::new(), Vec::new());
    let (mut at, mut lineno) = (0, 0);
    let line_ends = |at: usize| at == text.len() || text[at] == b'\n';
    while at < text.len() {
        lineno += 1;
        let bad = |what: &str| GraphError::Parse(lineno, what.into());
        at = skip_blanks(&text, at);
        if line_ends(at) || text[at] == b'#' {
            at += text[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len() - at, |p| p + 1);
            continue;
        }
        let vid = number(&text, &mut at, b' ').ok_or_else(|| bad("bad vertex id"))?;
        if vid as usize != labels.len() {
            return Err(bad(&format!(
                "vertex ids must be dense and ordered, got {vid}"
            )));
        }
        at = skip_blanks(&text, at);
        if line_ends(at) {
            return Err(bad("missing vertex label"));
        }
        labels.push(number(&text, &mut at, b' ').ok_or_else(|| bad("bad vertex label"))?);
        loop {
            at = skip_blanks(&text, at);
            if line_ends(at) {
                at += 1;
                break;
            }
            let nbr = number(&text, &mut at, b',').ok_or_else(|| bad("bad neighbor id"))?;
            let mut elabel = 0;
            if text.get(at) == Some(&b',') {
                at += 1;
                elabel = number(&text, &mut at, b' ').ok_or_else(|| bad("bad edge label"))?;
            }
            // Each undirected edge appears twice; keep the (u < v) copy.
            if vid < nbr {
                edges.push((vid, nbr, elabel));
            }
        }
    }
    try_graph_from_edges(&labels, &edges)
}

/// ASCII whitespace as `str::split_whitespace` sees it (vertical tab too).
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// The first byte from `at` on that is not whitespace or is a line end.
fn skip_blanks(text: &[u8], at: usize) -> usize {
    at + text[at..]
        .iter()
        .take_while(|&&b| b != b'\n' && is_space(b))
        .count()
}

/// Reads the decimal `u32` at `text[*at..]` as `str::parse` would (an
/// optional `+`, at least one digit, no overflow), moving `at` past it;
/// the number must end the text, or meet whitespace or `end`.
fn number(text: &[u8], at: &mut usize, end: u8) -> Option<u32> {
    *at += usize::from(text.get(*at) == Some(&b'+'));
    let start = *at;
    let mut n: u32 = 0;
    while let Some(digit) = text
        .get(*at)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        n = n.checked_mul(10)?.checked_add(u32::from(digit))?;
        *at += 1;
    }
    let ends = text.get(*at).is_none_or(|&b| b == end || is_space(b));
    (*at > start && ends).then_some(n)
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
    use crate::{EdgeId, Label, VertexId};

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

    /// Every parse error names its message and its 1-based line, blank
    /// and comment lines counted.
    #[test]
    fn adjacency_parse_errors_name_message_and_line() {
        let cases: [(&[u8], usize, &str); 7] = [
            (b"x 0\n", 1, "bad vertex id"),
            (
                b"0 0 1\n\n# c\n 2 0 0\n",
                4,
                "vertex ids must be dense and ordered, got 2",
            ),
            (b"0\n", 1, "missing vertex label"),
            (b"0 0 1\n1 -1 0\n", 2, "bad vertex label"),
            (b"0 0 1,\n1 0 0\n", 1, "bad edge label"),
            (b"0 0 ,2\n1 0 0\n", 1, "bad neighbor id"),
            (b"0 0 4294967296\n", 1, "bad neighbor id"),
        ];
        for (input, line, message) in cases {
            match read_adjacency_list(BufReader::new(input)) {
                Err(GraphError::Parse(l, m)) => assert_eq!((l, m.as_str()), (line, message)),
                other => panic!("{:?}: {other:?}", String::from_utf8_lossy(input)),
            }
        }
        let plus = read_adjacency_list(BufReader::new(b"+0 +1 +1,+2\r\n1\t0\t0,2" as &[u8]));
        assert_eq!(plus.unwrap().edge_label(EdgeId(0)), Label(2));
        let unterminated = read_adjacency_list(BufReader::new(b"0 0 1\n1 0 0" as &[u8]));
        assert_eq!(unterminated.unwrap().num_edges(), 1);
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
