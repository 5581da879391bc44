//! # fractal-lint
//!
//! Token-level static analysis for the fractal workspace (DESIGN.md §15).
//! Std-only, no crates.io dependencies — the same philosophy as the
//! compat shims; JSON goes through `fractal_runtime::json`. Five passes run over every product `.rs` file:
//!
//! 1. **facade-escape** — `std::sync::{atomic,Mutex,RwLock,Condvar}`,
//!    `crossbeam`, `parking_lot` and raw `UnsafeCell` are forbidden
//!    outside `crates/runtime/src/sync*`, `crates/check` and
//!    `crates/compat`, so every synchronization site stays
//!    model-checkable under `--cfg fractal_check` (DESIGN.md §11).
//! 2. **ordering** — every atomic `load/store/swap/compare_exchange/`
//!    `fetch_*` call site must carry a `// ordering:` comment within
//!    10 lines above it justifying the memory ordering.
//! 3. **unsafe** — every `unsafe` token needs a `// SAFETY:` comment
//!    within 3 lines, and the per-file unsafe census must match the
//!    committed `ci/unsafe-inventory.json`, making new unsafe an
//!    explicit, reviewed diff.
//! 4. **artifacts** — cross-artifact consistency: every `pub … : u64`
//!    counter in the stats/fault structs must be serialized into the
//!    `fractal-metrics/1` schema and pinned by the perf baseline (or
//!    allow-listed with a reason); every `Frame`/`AppSpec` variant must
//!    have encode and decode match arms and a mention in `crates/net`
//!    tests.
//! 5. **panic** — `.unwrap()` / `.expect()` / `panic!` in designated
//!    hot-path modules are denied without a `// panic-ok:` waiver, and
//!    network reads in `crates/net/src` may never unwrap on the same
//!    line (a peer can close the socket at any byte).
//!
//! Waivers: in-code tags (`// ordering:` / `// SAFETY:` document a site;
//! `// panic-ok: <reason>` waives one) plus the JSON waiver file
//! `ci/lint-waivers.json` for file-level facade waivers and counter/codec
//! allow-list entries. Every waiver needs a reason; stale or reasonless
//! waivers are themselves findings (`waiver-hygiene`).

pub mod artifacts;
pub mod lexer;
pub mod passes;
pub mod selftest;
pub mod source;
pub mod testkit;
pub mod waivers;

pub use fractal_runtime::json;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// One lint violation. `pass` is the rule identifier (e.g.
/// `facade-escape`, `ordering-tag`); `line` is 0 for whole-file or
/// whole-artifact findings.
#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn new(pass: &'static str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            pass,
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// Rule identifiers, grouped into the five pass families for reporting.
pub const RULE_FACADE: &str = "facade-escape";
pub const RULE_ORDERING: &str = "ordering-tag";
pub const RULE_SAFETY: &str = "safety-comment";
pub const RULE_INVENTORY: &str = "unsafe-inventory";
pub const RULE_ARTIFACT: &str = "artifact-consistency";
pub const RULE_PANIC: &str = "hot-path-panic";
pub const RULE_NET_UNWRAP: &str = "net-read-unwrap";
pub const RULE_WAIVER: &str = "waiver-hygiene";

/// (pass family shown in the report, rule ids it aggregates)
pub const PASS_FAMILIES: &[(&str, &[&str])] = &[
    ("facade", &[RULE_FACADE]),
    ("ordering", &[RULE_ORDERING]),
    ("unsafe", &[RULE_SAFETY, RULE_INVENTORY]),
    ("artifacts", &[RULE_ARTIFACT]),
    ("panic", &[RULE_PANIC, RULE_NET_UNWRAP]),
    ("waiver", &[RULE_WAIVER]),
];

/// What the analyzer scans and checks. `default_for` points every knob
/// at the real tree layout; the self-test and golden fixtures reuse the
/// same defaults against scratch roots so the production configuration
/// itself is what gets exercised.
pub struct LintConfig {
    pub root: PathBuf,
    /// Rewrite `ci/unsafe-inventory.json` from the current census
    /// instead of diffing against it.
    pub update_inventory: bool,
    /// Files/dirs (relative, `/`-separated prefixes) allowed to name raw
    /// sync primitives.
    pub facade_exempt: Vec<String>,
    /// Hot-path modules for the panic audit (relative prefixes).
    pub hot_paths: Vec<String>,
    /// Crate source root whose reads must not unwrap inline.
    pub net_src: String,
    /// Counter declarations: (file, struct names).
    pub counter_structs: Vec<(String, Vec<String>)>,
    /// Files whose string literals form the metrics schema surface.
    pub schema_files: Vec<String>,
    pub baseline: String,
    pub waiver_file: String,
    pub inventory_file: String,
    /// Enum codec coverage: (file, enum, [encode fn, decode fn]).
    pub enums: Vec<(String, String, Vec<String>)>,
    /// Directory whose test files must mention every codec variant.
    pub codec_tests_dir: String,
}

impl LintConfig {
    pub fn default_for(root: &Path) -> LintConfig {
        LintConfig {
            root: root.to_path_buf(),
            update_inventory: false,
            facade_exempt: vec![
                "crates/runtime/src/sync".into(),
                "crates/check/".into(),
                "crates/compat/".into(),
            ],
            hot_paths: vec![
                "crates/graph/src/kernels.rs".into(),
                "crates/enum/src/".into(),
                "crates/runtime/src/executor.rs".into(),
                "crates/runtime/src/steal.rs".into(),
                "crates/runtime/src/level.rs".into(),
                "crates/core/src/engine.rs".into(),
            ],
            net_src: "crates/net/src/".into(),
            counter_structs: vec![
                (
                    "crates/runtime/src/stats.rs".into(),
                    vec!["CoreStats".into(), "PlannerStats".into()],
                ),
                (
                    "crates/runtime/src/fault.rs".into(),
                    vec!["FaultStats".into()],
                ),
            ],
            schema_files: vec![
                "crates/runtime/src/stats.rs".into(),
                "crates/runtime/src/fault.rs".into(),
            ],
            baseline: "ci/perf-baseline.json".into(),
            waiver_file: "ci/lint-waivers.json".into(),
            inventory_file: "ci/unsafe-inventory.json".into(),
            enums: vec![
                (
                    "crates/net/src/frame.rs".into(),
                    "Frame".into(),
                    vec!["encode_payload".into(), "decode_payload".into()],
                ),
                // The public encode_app_spec/decode_app_spec delegate to
                // put_app/get_app, which hold the per-variant match arms.
                (
                    "crates/net/src/blob.rs".into(),
                    "AppSpec".into(),
                    vec!["put_app".into(), "get_app".into()],
                ),
            ],
            codec_tests_dir: "crates/net/tests".into(),
        }
    }

    pub fn is_facade_exempt(&self, rel: &str) -> bool {
        self.facade_exempt
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    }

    pub fn is_hot_path(&self, rel: &str) -> bool {
        self.hot_paths.iter().any(|p| rel.starts_with(p.as_str()))
    }
}

/// Aggregated result of one lint run.
pub struct LintOutcome {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    /// Waivers actually consumed: waiver-file entries + `panic-ok` tags.
    pub waivers_used: usize,
    /// Per pass family: (name, findings, waivers used).
    pub pass_stats: Vec<(&'static str, usize, usize)>,
}

impl LintOutcome {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Recursively collect product `.rs` files under `root/src` and
/// `root/crates`, skipping `tests/`, `benches/` and `target/`
/// directories (integration tests and benches are not product code; the
/// `#[cfg(test)]` mask handles unit tests inside product files).
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["src", "crates"] {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "tests" | "benches" | "target") || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run every pass. Fails only on environmental errors (unreadable root,
/// malformed waiver/baseline JSON is reported as findings instead where
/// possible).
pub fn run(cfg: &LintConfig) -> Result<LintOutcome, String> {
    let paths = rust_files(&cfg.root);
    if paths.is_empty() {
        return Err(format!(
            "no .rs files under {} — wrong --root?",
            cfg.root.display()
        ));
    }
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let src = std::fs::read_to_string(p).map_err(|e| format!("read {}: {}", p.display(), e))?;
        files.push(SourceFile::parse(rel_of(&cfg.root, p), &src));
    }

    let mut waivers = waivers::Waivers::load(cfg);
    let mut findings = Vec::new();
    let mut panic_waivers_used = 0usize;

    passes::facade_pass(cfg, &files, &mut waivers, &mut findings);
    passes::ordering_pass(cfg, &files, &mut findings);
    passes::unsafe_pass(cfg, &files, &mut findings)?;
    artifacts::artifact_pass(cfg, &files, &mut waivers, &mut findings);
    passes::panic_pass(cfg, &files, &mut findings, &mut panic_waivers_used);
    waivers.hygiene(&mut findings);

    let waivers_used = waivers.used_count() + panic_waivers_used;
    // Order findings by file then line for stable output.
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    let mut pass_stats = Vec::new();
    for (family, rules) in PASS_FAMILIES {
        let n = findings.iter().filter(|f| rules.contains(&f.pass)).count();
        let w = match *family {
            "facade" => waivers.used_for("facade-escape"),
            "artifacts" => waivers.used_for("counter-pin") + waivers.used_for("codec-test"),
            "panic" => panic_waivers_used,
            _ => 0,
        };
        pass_stats.push((*family, n, w));
    }

    Ok(LintOutcome {
        files_scanned: files.len(),
        findings,
        waivers_used,
        pass_stats,
    })
}

/// Render the outcome as canonical `fractal-metrics/1` JSON (the same
/// envelope the trace/perf tooling emits, so `scripts/perf_gate.py` can
/// assert on it).
pub fn metrics_json(out: &LintOutcome) -> String {
    let mut e = json::Emitter::pretty();
    e.begin_obj();
    e.key("schema").str("fractal-metrics/1");
    e.key("kind").str("lint");
    e.key("lint_files_scanned").u64(out.files_scanned as u64);
    e.key("lint_findings").u64(out.findings.len() as u64);
    e.key("lint_waivers").u64(out.waivers_used as u64);
    e.key("passes").begin_arr();
    for (name, n, w) in &out.pass_stats {
        e.inline().begin_obj();
        e.key("name").str(name);
        e.key("findings").u64(*n as u64);
        e.key("waivers").u64(*w as u64);
        e.end_obj();
    }
    e.end_arr();
    e.key("findings").begin_arr();
    for f in &out.findings {
        e.inline().begin_obj();
        e.key("pass").str(f.pass);
        e.key("file").str(&f.file);
        e.key("line").u64(f.line as u64);
        e.key("message").str(&f.message);
        e.end_obj();
    }
    e.end_arr().end_obj();
    e.finish()
}

/// Human-readable findings listing for terminal use.
pub fn render_text(out: &LintOutcome) -> String {
    let mut s = String::new();
    for f in &out.findings {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.pass, f.message
        ));
    }
    s.push_str(&format!(
        "fractal lint: {} file(s) scanned, {} finding(s), {} waiver(s) in use\n",
        out.files_scanned,
        out.findings.len(),
        out.waivers_used
    ));
    s
}
