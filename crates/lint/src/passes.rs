//! The token view every pass walks, and the ordering audit. A pass
//! iterates the non-comment token stream of every scanned file,
//! skipping `#[cfg(test)]` regions.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::{Finding, LintConfig, RULE_ORDERING};

/// A file's non-comment tokens with their test-region flags, the view
/// every pass iterates.
pub struct Code<'a> {
    pub sf: &'a SourceFile,
    idx: Vec<usize>,
}

impl<'a> Code<'a> {
    pub fn of(sf: &'a SourceFile) -> Code<'a> {
        Code {
            sf,
            idx: (0..sf.toks.len())
                .filter(|&i| !sf.toks[i].is_comment())
                .collect(),
        }
    }
    pub fn len(&self) -> usize {
        self.idx.len()
    }
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }
    pub fn tok(&self, k: usize) -> &Tok {
        &self.sf.toks[self.idx[k]]
    }
    pub fn in_test(&self, k: usize) -> bool {
        self.sf.in_test[self.idx[k]]
    }
    /// True if tokens at k, k+1 form a `::` path separator.
    pub fn is_path_sep(&self, k: usize) -> bool {
        k + 1 < self.len() && self.tok(k).is_punct(':') && self.tok(k + 1).is_punct(':')
    }
    /// Index just past the group opened by the bracket at `k`
    /// (`(`/`[`/`{`), or `len()` if unclosed.
    pub fn group_end(&self, k: usize) -> usize {
        let mut depth = 0usize;
        for j in k..self.len() {
            match self.tok(j) {
                t if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => depth += 1,
                t if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        self.len()
    }
}

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The ordering audit. A call `.m(…)` with `m` an atomic accessor
/// and a memory-ordering variant among the arguments must have an
/// `// ordering:` comment within [`crate::source::ORDERING_WINDOW`]
/// lines above (or anywhere down to the ordering argument for
/// multi-line calls). Keying on the ordering *argument* is what keeps
/// `std::cmp::Ordering` match arms and `Vec::swap(i, j)` out of scope.
pub fn ordering_pass(cfg: &LintConfig, files: &[SourceFile], out: &mut Vec<Finding>) {
    for sf in files {
        if cfg.is_facade_exempt(&sf.rel) {
            continue;
        }
        let code = Code::of(sf);
        for k in 0..code.len().saturating_sub(2) {
            if code.in_test(k) {
                continue;
            }
            if !(code.tok(k).is_punct('.')
                && code.tok(k + 1).kind == TokKind::Ident
                && ATOMIC_METHODS.contains(&code.tok(k + 1).text.as_str())
                && code.tok(k + 2).is_punct('('))
            {
                continue;
            }
            let end = code.group_end(k + 2);
            let mut ord_line = None;
            for j in k + 3..end {
                let t = code.tok(j);
                if t.kind == TokKind::Ident && ATOMIC_ORDERINGS.contains(&t.text.as_str()) {
                    ord_line = Some(t.line);
                    break;
                }
            }
            let Some(ord_line) = ord_line else { continue };
            let site = code.tok(k + 1).line;
            if !sf.ordering_tag_near(site, ord_line) {
                out.push(Finding::new(
                    RULE_ORDERING,
                    &sf.rel,
                    site,
                    format!(
                        "atomic `.{}` with an explicit memory ordering has no `// ordering:` comment within {} lines",
                        code.tok(k + 1).text,
                        crate::source::ORDERING_WINDOW
                    ),
                ));
            }
        }
    }
}
