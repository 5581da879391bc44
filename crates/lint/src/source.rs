//! Per-file analysis context: tokens, `#[cfg(test)]` region masking, and
//! the `// ordering:` tag index the ordering audit runs against.

use crate::lexer::{tokenize, Tok};
use std::collections::HashSet;

/// How far above a site an `// ordering:` comment may sit and still
/// cover it.
pub const ORDERING_WINDOW: u32 = 10;

pub struct SourceFile {
    /// Path relative to the lint root, `/`-separated.
    pub rel: String,
    pub toks: Vec<Tok>,
    /// Parallel to `toks`: true for tokens inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Lines covered by an `// ordering:` comment.
    ordering_tags: HashSet<u32>,
}

/// Doc comments (`///`, `//!`, `/** */`, `/*! */`) are documentation,
/// not waivers: a doc sentence *describing* the `// ordering:` tag
/// convention must not satisfy the audit for nearby code.
fn is_doc_comment(t: &Tok) -> bool {
    t.text.starts_with('/') || t.text.starts_with('!') || t.text.starts_with('*')
}

impl SourceFile {
    pub fn parse(rel: String, src: &str) -> SourceFile {
        let toks = tokenize(src);
        let in_test = test_mask(&toks);
        let mut ordering_tags = HashSet::new();
        // A wrapped `//` comment lexes as one token per line, but reads
        // as one block: a tag anywhere in a contiguous run of line
        // comments covers through the run's last line (block comments
        // already span via line_end).
        let mut run_end: Vec<u32> = toks.iter().map(|t| t.line_end).collect();
        for i in (0..toks.len().saturating_sub(1)).rev() {
            if toks[i].kind == crate::lexer::TokKind::LineComment
                && toks[i + 1].kind == crate::lexer::TokKind::LineComment
                && toks[i + 1].line == toks[i].line + 1
            {
                run_end[i] = run_end[i + 1];
            }
        }
        for (i, t) in toks.iter().enumerate() {
            if !t.is_comment() || is_doc_comment(t) || in_test[i] {
                continue;
            }
            if t.text.contains("ordering:") {
                for l in t.line..=run_end[i] {
                    ordering_tags.insert(l);
                }
            }
        }
        SourceFile {
            rel,
            toks,
            in_test,
            ordering_tags,
        }
    }

    /// True if an `// ordering:` tag covers `line` (same line or up to
    /// [`ORDERING_WINDOW`] lines above), or any line down to `upto`.
    pub fn ordering_tag_near(&self, line: u32, upto: u32) -> bool {
        let lo = line.saturating_sub(ORDERING_WINDOW);
        (lo..=upto.max(line)).any(|l| self.ordering_tags.contains(&l))
    }
}

/// Compute the `#[cfg(test)]` mask: for each `#[cfg(...)]` attribute
/// whose argument list mentions `test` not inside `not(...)`, mask the
/// attribute plus the item it governs (through the matching close brace,
/// or the first top-level `;` for brace-less items). Attributes stacked
/// between the cfg and the item are masked too.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut k = 0;
    while k + 1 < code.len() {
        let i = code[k];
        if !(toks[i].is_punct('#') && toks[code[k + 1]].is_punct('[')) {
            k += 1;
            continue;
        }
        // Scan the attribute's bracket group.
        let attr_start = k;
        let mut depth = 0usize;
        let mut end = k + 1; // index into `code` of the closing ']'
        let mut is_cfg_test = false;
        let mut saw_cfg = false;
        let mut not_depth: Option<usize> = None;
        for (pos, &ci) in code.iter().enumerate().skip(k + 1) {
            let t = &toks[ci];
            if t.is_punct('[') || t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(']') || t.is_punct(')') {
                if let Some(nd) = not_depth {
                    if depth == nd {
                        not_depth = None;
                    }
                }
                depth -= 1;
                if depth == 0 {
                    end = pos;
                    break;
                }
            } else if t.is_ident("cfg") && depth == 1 {
                saw_cfg = true;
            } else if t.is_ident("not") {
                if not_depth.is_none() {
                    not_depth = Some(depth);
                }
            } else if t.is_ident("test") && saw_cfg && not_depth.is_none() {
                is_cfg_test = true;
            }
        }
        if !is_cfg_test {
            k = end + 1;
            continue;
        }
        // Mask from the attribute through the governed item. Skip any
        // further stacked attributes first.
        let mut p = end + 1;
        while p + 1 < code.len() && toks[code[p]].is_punct('#') && toks[code[p + 1]].is_punct('[') {
            let mut d = 0usize;
            let mut q = p + 1;
            for (pos, &ci) in code.iter().enumerate().skip(p + 1) {
                if toks[ci].is_punct('[') {
                    d += 1;
                } else if toks[ci].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        q = pos;
                        break;
                    }
                }
            }
            p = q + 1;
        }
        // Find the item extent: first `{` at depth 0 → matching `}`;
        // a `;` before any `{` ends a brace-less item.
        let mut item_end = p;
        let mut d = 0usize;
        let mut found = false;
        for (pos, &ci) in code.iter().enumerate().skip(p) {
            let t = &toks[ci];
            if t.is_punct(';') && d == 0 {
                item_end = pos;
                found = true;
                break;
            }
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                d += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                d = d.saturating_sub(1);
                if d == 0 && t.is_punct('}') {
                    item_end = pos;
                    found = true;
                    break;
                }
            }
        }
        if !found {
            item_end = code.len() - 1;
        }
        // Mask the full raw-token span (comments interleaved in the
        // test region included, so tags inside test code neither waive
        // product code nor count as stale).
        for m in mask
            .iter_mut()
            .take(code[item_end] + 1)
            .skip(code[attr_start])
        {
            *m = true;
        }
        k = item_end + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_cfg_test_mod() {
        let src = "fn live() { x.load(1); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.load(2); }\n}\nfn live2() {}\n";
        let sf = SourceFile::parse("a.rs".into(), src);
        let masked: Vec<_> = sf
            .toks
            .iter()
            .zip(&sf.in_test)
            .filter(|(_, &m)| m)
            .map(|(t, _)| t.text.clone())
            .collect();
        assert!(masked.iter().any(|t| t == "tests"));
        assert!(!masked.iter().any(|t| t == "live2"));
        assert!(!masked.iter().any(|t| t == "live"));
    }

    #[test]
    fn does_not_mask_cfg_not_test() {
        let src = "#[cfg(not(test))]\nfn prod() { a.load(1); }\n";
        let sf = SourceFile::parse("a.rs".into(), src);
        assert!(sf.in_test.iter().all(|&m| !m));
    }

    #[test]
    fn masks_stacked_attributes_and_fn_items() {
        let src =
            "#[cfg(test)]\n#[allow(dead_code)]\nfn only_in_tests() { b.store(1); }\nfn live() {}\n";
        let sf = SourceFile::parse("a.rs".into(), src);
        let live_idx = sf.toks.iter().position(|t| t.is_ident("live")).unwrap();
        let test_idx = sf
            .toks
            .iter()
            .position(|t| t.is_ident("only_in_tests"))
            .unwrap();
        assert!(sf.in_test[test_idx]);
        assert!(!sf.in_test[live_idx]);
    }

    #[test]
    fn cfg_any_including_test_is_masked() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nfn helper() {}\nfn live() {}\n";
        let sf = SourceFile::parse("a.rs".into(), src);
        let h = sf.toks.iter().position(|t| t.is_ident("helper")).unwrap();
        let l = sf.toks.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(sf.in_test[h]);
        assert!(!sf.in_test[l]);
    }

    #[test]
    fn tag_windows() {
        let src = "// ordering: Relaxed — counter only\nlet x = a.load(O);\n\n\n\n\n\n\n\n\n\n\nlet y = b.load(O);\n";
        let sf = SourceFile::parse("a.rs".into(), src);
        assert!(sf.ordering_tag_near(2, 2));
        assert!(!sf.ordering_tag_near(13, 13)); // 12 lines below the tag
    }
}
