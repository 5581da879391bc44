//! The token-walking passes: facade-escape, ordering audit, unsafe
//! census, and the hot-path panic audit. Each walks the non-comment
//! token stream of every scanned file, skipping `#[cfg(test)]` regions.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::waivers::Waivers;
use crate::{
    Finding, LintConfig, RULE_FACADE, RULE_INVENTORY, RULE_NET_UNWRAP, RULE_ORDERING, RULE_PANIC,
    RULE_SAFETY,
};
use std::collections::BTreeMap;

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

const FORBIDDEN_SYNC: &[&str] = &["atomic", "Mutex", "RwLock", "Condvar"];

/// Pass 1: facade escapes. Any path `std::sync::…` (or `core::sync::…`)
/// reaching atomics/locks, or any mention of `crossbeam` /
/// `parking_lot` / `UnsafeCell`, outside the facade-exempt prefixes.
/// Waivable per file via `ci/lint-waivers.json` (`pass: facade-escape`,
/// key = relative path).
pub fn facade_pass(
    cfg: &LintConfig,
    files: &[SourceFile],
    waivers: &mut Waivers,
    out: &mut Vec<Finding>,
) {
    for sf in files {
        if cfg.is_facade_exempt(&sf.rel) {
            continue;
        }
        let code = Code::of(sf);
        let mut hits: Vec<(u32, String)> = Vec::new();
        let mut k = 0;
        while k < code.len() {
            if code.in_test(k) {
                k += 1;
                continue;
            }
            let t = code.tok(k);
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "crossbeam" | "parking_lot" => {
                        hits.push((t.line, format!("names `{}` directly; route through `fractal_runtime::sync` (channels: `sync::channel`)", t.text)));
                        k += 1;
                        continue;
                    }
                    "UnsafeCell" => {
                        hits.push((
                            t.line,
                            "raw `UnsafeCell` outside the sync facade".to_string(),
                        ));
                        k += 1;
                        continue;
                    }
                    // Match std :: sync :: <forbidden or group>.
                    "std" | "core"
                        if code.is_path_sep(k + 1)
                            && k + 3 < code.len()
                            && code.tok(k + 3).is_ident("sync")
                            && code.is_path_sep(k + 4)
                            && k + 6 < code.len() =>
                    {
                        let head = k + 6;
                        let h = code.tok(head);
                        if h.kind == TokKind::Ident && FORBIDDEN_SYNC.contains(&h.text.as_str()) {
                            hits.push((
                                h.line,
                                format!(
                                    "`std::sync::{}` outside the facade; use `fractal_runtime::sync` / `fractal_check::facade`",
                                    h.text
                                ),
                            ));
                        } else if h.is_punct('{') {
                            let end = code.group_end(head);
                            for j in head..end {
                                let g = code.tok(j);
                                if g.kind == TokKind::Ident
                                    && FORBIDDEN_SYNC.contains(&g.text.as_str())
                                {
                                    hits.push((
                                        g.line,
                                        format!(
                                            "`std::sync::{{… {} …}}` outside the facade; use `fractal_runtime::sync`",
                                            g.text
                                        ),
                                    ));
                                }
                            }
                            k = end;
                            continue;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        if hits.is_empty() {
            continue;
        }
        if let Some(reason) = waivers.consume("facade-escape", &sf.rel) {
            let _ = reason; // file-level waiver covers all sites
            continue;
        }
        for (line, msg) in hits {
            out.push(Finding::new(RULE_FACADE, &sf.rel, line, msg));
        }
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

/// Pass 2: ordering audit. A call `.m(…)` with `m` an atomic accessor
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

/// Pass 3: unsafe census. Every non-test `unsafe` token needs a
/// `// SAFETY:` comment within [`crate::source::SAFETY_WINDOW`] lines,
/// and the per-file counts must match `ci/unsafe-inventory.json` so new
/// unsafe shows up as a reviewed diff of that file. With
/// `--update-inventory` the census is rewritten instead of diffed.
pub fn unsafe_pass(
    cfg: &LintConfig,
    files: &[SourceFile],
    out: &mut Vec<Finding>,
) -> Result<(), String> {
    let mut census: BTreeMap<String, u64> = BTreeMap::new();
    for sf in files {
        let code = Code::of(sf);
        for k in 0..code.len() {
            if code.in_test(k) || !code.tok(k).is_ident("unsafe") {
                continue;
            }
            *census.entry(sf.rel.clone()).or_insert(0) += 1;
            let line = code.tok(k).line;
            if !sf.safety_tag_near(line) {
                out.push(Finding::new(
                    RULE_SAFETY,
                    &sf.rel,
                    line,
                    format!(
                        "`unsafe` without a `// SAFETY:` comment within {} lines",
                        crate::source::SAFETY_WINDOW
                    ),
                ));
            }
        }
    }

    let inv_path = cfg.root.join(&cfg.inventory_file);
    if cfg.update_inventory {
        let mut e = crate::json::Emitter::pretty();
        e.begin_obj();
        e.key("schema").str("fractal-unsafe-inventory/1");
        e.key("files").begin_obj();
        for (rel, n) in &census {
            e.key(rel).u64(*n);
        }
        e.end_obj().end_obj();
        let s = e.finish();
        if let Some(dir) = inv_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&inv_path, s).map_err(|e| format!("write {}: {}", inv_path.display(), e))?;
        return Ok(());
    }

    let committed: BTreeMap<String, u64> = match std::fs::read_to_string(&inv_path) {
        Ok(text) => match crate::json::parse(&text) {
            Ok(v) => v
                .get("files")
                .and_then(|f| f.as_obj())
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n as u64)))
                        .collect()
                })
                .unwrap_or_default(),
            Err(e) => {
                out.push(Finding::new(
                    RULE_INVENTORY,
                    &cfg.inventory_file,
                    0,
                    format!("malformed inventory JSON: {}", e),
                ));
                return Ok(());
            }
        },
        Err(_) => {
            if !census.is_empty() {
                out.push(Finding::new(
                    RULE_INVENTORY,
                    &cfg.inventory_file,
                    0,
                    "missing unsafe inventory; run `fractal lint --update-inventory` and commit it"
                        .to_string(),
                ));
            }
            return Ok(());
        }
    };

    for (rel, n) in &census {
        let have = committed.get(rel).copied().unwrap_or(0);
        if *n != have {
            out.push(Finding::new(
                RULE_INVENTORY,
                rel,
                0,
                format!(
                    "{} `unsafe` site(s) but inventory records {}; review and run `fractal lint --update-inventory`",
                    n, have
                ),
            ));
        }
    }
    for (rel, have) in &committed {
        if *have > 0 && !census.contains_key(rel) {
            out.push(Finding::new(
                RULE_INVENTORY,
                rel,
                0,
                format!(
                    "inventory records {} `unsafe` site(s) but the file has none (or was removed); run `fractal lint --update-inventory`",
                    have
                ),
            ));
        }
    }
    Ok(())
}

const NET_READ_METHODS: &[&str] = &["recv", "recv_timeout", "peek", "read_exact", "read_to_end"];
const NET_READ_FREE: &[&str] = &["read_frame"];
const PANIC_CALLS: &[&str] = &["unwrap", "expect"];

/// Pass 5: hot-path panic audit plus the net-read rule. `.unwrap()` /
/// `.expect()` / `panic!` in configured hot-path modules, and any read
/// call unwrapped on its own line in `crates/net/src`, require a
/// `// panic-ok: <reason>` tag within
/// [`crate::source::PANIC_OK_WINDOW`] lines. Consumed tags are counted
/// as waivers; bare or unconsumed tags become `waiver-hygiene`
/// findings.
pub fn panic_pass(
    cfg: &LintConfig,
    files: &[SourceFile],
    out: &mut Vec<Finding>,
    waivers_used: &mut usize,
) {
    for sf in files {
        let hot = cfg.is_hot_path(&sf.rel);
        let net = sf.rel.starts_with(cfg.net_src.as_str());
        if !hot && !net {
            // Tags in files neither rule covers would silently waive
            // nothing; surface them so they get cleaned up.
            for (line, _) in sf.panic_ok_tags() {
                out.push(Finding::new(
                    crate::RULE_WAIVER,
                    &sf.rel,
                    *line,
                    "`// panic-ok:` tag in a file no panic rule covers (stale waiver)".to_string(),
                ));
            }
            continue;
        }
        let code = Code::of(sf);
        let mut used = std::collections::BTreeSet::new();
        // Lines in this file that hold a read call (for the net rule).
        let mut read_lines = std::collections::HashSet::new();
        if net {
            for k in 0..code.len().saturating_sub(1) {
                if code.in_test(k) {
                    continue;
                }
                let t = code.tok(k);
                let called = |name: &Tok, paren_at: usize| {
                    name.kind == TokKind::Ident
                        && paren_at < code.len()
                        && code.tok(paren_at).is_punct('(')
                };
                if t.is_punct('.')
                    && k + 2 < code.len()
                    && called(code.tok(k + 1), k + 2)
                    && NET_READ_METHODS.contains(&code.tok(k + 1).text.as_str())
                {
                    read_lines.insert(code.tok(k + 1).line);
                }
                if t.kind == TokKind::Ident
                    && NET_READ_FREE.contains(&t.text.as_str())
                    && k + 1 < code.len()
                    && code.tok(k + 1).is_punct('(')
                {
                    read_lines.insert(t.line);
                }
            }
        }
        for k in 0..code.len() {
            if code.in_test(k) {
                continue;
            }
            let t = code.tok(k);
            let (site_line, what): (u32, String) = if t.is_punct('.')
                && k + 2 < code.len()
                && code.tok(k + 1).kind == TokKind::Ident
                && PANIC_CALLS.contains(&code.tok(k + 1).text.as_str())
                && code.tok(k + 2).is_punct('(')
            {
                (code.tok(k + 1).line, format!(".{}()", code.tok(k + 1).text))
            } else if t.is_ident("panic")
                && k + 1 < code.len()
                && code.tok(k + 1).is_punct('!')
                && !code.in_test(k + 1)
            {
                (t.line, "panic!".to_string())
            } else {
                continue;
            };
            let is_net_read_unwrap = net && what != "panic!" && read_lines.contains(&site_line);
            if !hot && !is_net_read_unwrap {
                continue;
            }
            if sf.panic_ok_near(site_line, &mut used).is_some() {
                continue;
            }
            if is_net_read_unwrap {
                out.push(Finding::new(
                    RULE_NET_UNWRAP,
                    &sf.rel,
                    site_line,
                    format!(
                        "network read unwrapped inline ({}) — a peer can close the socket at any byte; propagate the error or add `// panic-ok: <reason>`",
                        what
                    ),
                ));
            } else {
                out.push(Finding::new(
                    RULE_PANIC,
                    &sf.rel,
                    site_line,
                    format!(
                        "{} in hot-path module without a `// panic-ok: <reason>` waiver",
                        what
                    ),
                ));
            }
        }
        // Waiver hygiene for this file's tags.
        for (line, reason) in sf.panic_ok_tags() {
            if !used.contains(line) {
                out.push(Finding::new(
                    crate::RULE_WAIVER,
                    &sf.rel,
                    *line,
                    "`// panic-ok:` tag waives no site within its window (stale waiver)"
                        .to_string(),
                ));
            } else if reason.trim().is_empty() {
                out.push(Finding::new(
                    crate::RULE_WAIVER,
                    &sf.rel,
                    *line,
                    "`// panic-ok:` waiver without a reason".to_string(),
                ));
            } else {
                *waivers_used += 1;
            }
        }
    }
}
